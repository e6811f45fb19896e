// The phase-program execution IR: the schedule as data.
//
// The paper's §2 hybrid strategy — CPU tiled before the band, a GPU band,
// CPU tiled after — used to be control flow hard-coded into the executor,
// with run() and estimate() as two hand-kept-in-sync walks of that one
// shape. A PhaseProgram makes the schedule a value instead: an ordered
// vector of PhaseDesc, each naming a device, a diagonal range, and the
// device-specific tuning for that range. plan_phases() compiles a
// TunableParams tuning into the paper's three-phase program (the default
// shape is now just one producible program among many); the executor is a
// single interpreter over any valid program, in functional or
// timing-only mode, so run/estimate parity is structural rather than
// tested-by-convention.
//
// Validity (enforced by PhaseProgram::validate): the phases partition the
// diagonal range [0, 2*dim-1) exactly — contiguous, non-empty, in
// dependency order — so every cell is computed exactly once and every
// phase's inputs were produced by earlier phases (or are grid borders).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "cpu/dataflow_wavefront.hpp"

namespace wavetune::core {

/// Where one phase of the program executes.
enum class PhaseDevice {
  kCpu,       ///< tiled-parallel CPU sweep (priced barrier or dataflow)
  kGpuSingle, ///< one simulated GPU, untiled or work-group tiled
  kGpuMulti,  ///< N >= 2 GPUs, fixed row split with chained halo exchanges
};

/// "cpu" / "gpu-single" / "gpu-multi" (stable names used in JSON + logs).
const char* phase_device_name(PhaseDevice d);

/// One phase: a device plus the diagonal range [d_begin, d_end) it owns
/// and the tuning knobs that apply on that device.
struct PhaseDesc {
  PhaseDevice device = PhaseDevice::kCpu;
  std::size_t d_begin = 0;  ///< first diagonal (i+j) of the phase
  std::size_t d_end = 0;    ///< one past the last diagonal

  // CPU phases:
  /// Cost model that prices the phase; every CPU phase runs the same
  /// dataflow sweep.
  cpu::Scheduler scheduler = cpu::Scheduler::kBarrier;
  std::size_t cpu_tile = 1;  ///< side of the square CPU tiles (>= 1)

  // GPU phases:
  int gpu_count = 1;         ///< devices; must be >= 2 for kGpuMulti
  std::size_t gpu_tile = 1;  ///< work-group tile side; 1 = untiled
  long long halo = 0;        ///< multi-GPU redundancy depth (>= 0)

  // Streaming strips (out-of-core execution; 0 = whole grid = one strip):
  // a phase with strip_rows > 0 executes as a sequence of row strips
  // [s*strip_rows, (s+1)*strip_rows) — exact-once row coverage by
  // construction, the row-axis analogue of the diagonal-band partition.
  // On kGpuSingle the strips stream through a pool of
  // min(strip_buffers, strips) device buffers of (strip_rows+1) x dim
  // elements each (one halo row), so peak device residency is
  // O(strip_rows*dim) instead of O(dim^2); with strip_buffers >= 2 the
  // next strip's frontier upload overlaps the current strip's kernels on
  // the simulated DMA engine. strip_buffers == 1 is the serialized-strip
  // baseline. On kCpu the strips run back to back on the host grid
  // (no buffers), which is what makes strip boundaries checkpointable
  // on every device. strip_rows == 0 runs the same code as one strip of
  // dim rows, but reports no strips and takes no checkpoints.
  std::size_t strip_rows = 0;    ///< rows per strip; 0 = whole grid = one strip
  std::size_t strip_buffers = 2; ///< strip pool size (1..3); GPU only

  bool is_cpu() const { return device == PhaseDevice::kCpu; }
  bool is_gpu() const { return !is_cpu(); }
  bool streamed() const { return strip_rows > 0; }

  /// Number of row strips this phase executes as (1 when not streamed).
  std::size_t strip_count(std::size_t dim) const {
    return strip_rows == 0 ? 1 : (dim + strip_rows - 1) / strip_rows;
  }
  /// Rows per strip (dim when not streamed).
  std::size_t strip_height(std::size_t dim) const { return strip_rows == 0 ? dim : strip_rows; }

  /// Throws std::invalid_argument on device-specific nonsense (empty
  /// range, zero tile, kGpuMulti with < 2 devices or negative halo, ...).
  void validate(std::size_t dim) const;
};

/// An ordered, validated schedule for one dim x dim wavefront instance.
struct PhaseProgram {
  std::size_t dim = 0;
  /// The tuning the program was compiled from (normalized) — carried for
  /// reporting (RunResult::params) and reproducibility; hand-built
  /// programs may leave it at the CPU-only default.
  TunableParams params;
  std::vector<PhaseDesc> phases;

  /// Throws std::invalid_argument unless the phases cover every diagonal
  /// of [0, 2*dim-1) exactly once, contiguously, in dependency order, and
  /// each phase passes its own device checks.
  void validate() const;

  /// Largest gpu_count any phase requests (0 for pure-CPU programs) — what
  /// the engine checks against the system profile at compile time.
  int max_gpu_count() const;

  std::size_t cpu_phase_count() const;
  std::size_t gpu_phase_count() const;

  /// Compact stable text form, e.g. "d79:cpu[0,10)b8;gpu1[10,69)t4;..." —
  /// used as a plan-cache key component and in bench/log output.
  std::string describe() const;
};

/// Compiles a tuning into the paper's schedule shape: CPU tiled before the
/// band, the GPU band (single or multi device), CPU tiled after — empty
/// phases omitted, so a band of -1 yields one whole-grid CPU phase and a
/// full band yields a single GPU phase. `scheduler` prices every CPU
/// phase (per-phase refinement lives in
/// autotune::tune_cpu_schedulers). `params` may be raw; it is normalized
/// for in.dim first. The returned program is validated.
PhaseProgram plan_phases(const InputParams& in, const TunableParams& params,
                         cpu::Scheduler scheduler = cpu::Scheduler::kBarrier);

/// A pure-CPU program of `n_phases` near-equal diagonal slices — the
/// simplest non-paper shape (N-phase CPU pipelining; a building block for
/// streaming strips). `n_phases` is clamped to the diagonal count.
PhaseProgram make_cpu_only_program(const InputParams& in, int cpu_tile, std::size_t n_phases,
                                   cpu::Scheduler scheduler = cpu::Scheduler::kBarrier);

/// Splits every GPU phase of `program` into `k` contiguous sub-bands of
/// near-equal diagonal count (each sub-band re-transfers its frontier, so
/// the split trades PCIe traffic for shorter device residency — the
/// phase-structure axis the autotuner can now search). `k` is clamped per
/// phase to the phase's width; k <= 1 returns the program unchanged.
PhaseProgram split_gpu_band(PhaseProgram program, std::size_t k);

/// Applies a streaming-strip axis to every CPU and single-GPU phase of
/// `program` (kGpuMulti phases are left whole-grid: the wedge split owns
/// the row axis there). `strip_rows` is clamped to the grid side;
/// strip_rows == 0 returns the program unchanged. The returned program is
/// validated; its describe() carries the strip suffix, so streamed and
/// whole-grid compilations of the same tuning never share a plan-cache
/// entry.
PhaseProgram apply_strips(PhaseProgram program, std::size_t strip_rows,
                          std::size_t strip_buffers = 2);

}  // namespace wavetune::core
