// Strip-boundary run checkpoints.
//
// Streaming strips give every phase a sequence of points where the host
// grid is in a consistent prefix state: all cells of completed phases,
// plus all band cells of completed strips of the current phase, hold
// their final values, and nothing after them has been touched. A
// RunCheckpoint snapshots exactly that state — the grid bytes plus the
// (phase, strip) resume cursor and enough identity (program digest, grid
// geometry) to refuse resuming under a different plan.
//
// Resume semantics (see HybridExecutor): the resumed run SKIPS the
// functional work before the cursor but still charges the FULL simulated
// schedule — the simulated fields of a RunResult are a pure function of
// (inputs, program), checkpointed or not — while wall_ns reflects only
// the re-executed remainder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace wavetune::core {

struct PhaseProgram;

/// Malformed/mismatched checkpoint bytes (bad magic, truncated payload,
/// digest, geometry or cursor mismatch on resume, unwritable/unreadable
/// file).
class CheckpointError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

struct RunCheckpoint {
  static constexpr std::uint32_t kMagic = 0x30504357u;  // "WCP0", little-endian
  static constexpr std::uint32_t kVersion = 1u;

  /// PhaseProgram::describe() of the plan that produced the snapshot —
  /// resuming validates it so a checkpoint never silently continues
  /// under a different schedule (which would corrupt the grid).
  std::string program_digest;
  std::size_t dim = 0;
  std::size_t elem_bytes = 0;
  std::size_t phase_index = 0;  ///< next phase to execute on resume
  std::size_t strip_index = 0;  ///< next strip within that phase
  std::vector<std::byte> grid;  ///< host grid snapshot (dim*dim*elem_bytes)

  /// Self-describing binary image (host byte order; checkpoints are a
  /// same-machine kill/resume facility, not an interchange format).
  std::vector<std::byte> serialize() const;
  /// Throws CheckpointError on bad magic/version/truncation/size skew.
  static RunCheckpoint deserialize(std::span<const std::byte> bytes);

  /// serialize() to `path` atomically enough for the chaos suite: the
  /// write goes through a temp file renamed into place, and the
  /// fault::kCheckpointWrite site fires before any byte is written.
  void save_file(const std::string& path) const;
  static RunCheckpoint load_file(const std::string& path);

  /// Throws CheckpointError unless the snapshot matches the program it is
  /// about to resume under: its describe() digest, the grid geometry, and
  /// a cursor inside the program — phase_index names one of its phases,
  /// and strip_index is 0 on a whole-grid phase and at most the strip
  /// count of a streamed one (equal to it once the phase's last strip
  /// completed). A cursor outside the program would make the resumed run
  /// skip work and return an incomplete grid.
  void validate_against(const PhaseProgram& program, std::size_t want_elem_bytes) const;
};

}  // namespace wavetune::core
