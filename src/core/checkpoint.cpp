#include "core/checkpoint.hpp"

#include <cstdio>
#include <cstring>

#include "core/phase_program.hpp"
#include "fault/injector.hpp"

namespace wavetune::core {

namespace {

// Appends by resize + memcpy: GCC 12 at -O3 misreads a range insert of a
// scalar's bytes as a write past the end (-Wstringop-overflow).
void put_raw(std::vector<std::byte>& out, const void* p, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, p, n);
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) { put_raw(out, &v, sizeof v); }

void put_u64(std::vector<std::byte>& out, std::uint64_t v) { put_raw(out, &v, sizeof v); }

struct Cursor {
  std::span<const std::byte> bytes;
  std::size_t pos = 0;

  // `n` comes from the payload and may be near 2^64: compare against the
  // remainder, since pos + n could wrap.
  void need(std::size_t n) const {
    if (n > bytes.size() - pos) throw CheckpointError("checkpoint: truncated payload");
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + pos, 4);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + pos, 8);
    pos += 8;
    return v;
  }
};

}  // namespace

std::vector<std::byte> RunCheckpoint::serialize() const {
  std::vector<std::byte> out;
  out.reserve(4 + 4 + 8 * 6 + program_digest.size() + grid.size());
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u64(out, program_digest.size());
  const auto* dp = reinterpret_cast<const std::byte*>(program_digest.data());
  out.insert(out.end(), dp, dp + program_digest.size());
  put_u64(out, dim);
  put_u64(out, elem_bytes);
  put_u64(out, phase_index);
  put_u64(out, strip_index);
  put_u64(out, grid.size());
  out.insert(out.end(), grid.begin(), grid.end());
  return out;
}

RunCheckpoint RunCheckpoint::deserialize(std::span<const std::byte> bytes) {
  Cursor c{bytes};
  if (c.u32() != kMagic) throw CheckpointError("checkpoint: bad magic");
  if (c.u32() != kVersion) throw CheckpointError("checkpoint: unsupported version");
  RunCheckpoint cp;
  const std::size_t digest_len = c.u64();
  c.need(digest_len);
  cp.program_digest.assign(reinterpret_cast<const char*>(c.bytes.data() + c.pos), digest_len);
  c.pos += digest_len;
  cp.dim = c.u64();
  cp.elem_bytes = c.u64();
  cp.phase_index = c.u64();
  cp.strip_index = c.u64();
  const std::size_t grid_len = c.u64();
  c.need(grid_len);
  cp.grid.assign(c.bytes.begin() + static_cast<std::ptrdiff_t>(c.pos),
                 c.bytes.begin() + static_cast<std::ptrdiff_t>(c.pos + grid_len));
  c.pos += grid_len;
  // dim * dim * elem_bytes may overflow for hostile fields; a wrapped
  // product must not let a small grid pass for a huge geometry.
  std::size_t want = 0;
  if (__builtin_mul_overflow(cp.dim, cp.dim, &want) ||
      __builtin_mul_overflow(want, cp.elem_bytes, &want) || cp.grid.size() != want) {
    throw CheckpointError("checkpoint: grid size does not match dim/elem_bytes");
  }
  return cp;
}

void RunCheckpoint::save_file(const std::string& path) const {
  fault::check(fault::Site::kCheckpointWrite);
  const std::vector<std::byte> bytes = serialize();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw CheckpointError("checkpoint: cannot open " + tmp + " for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: cannot rename " + tmp + " to " + path);
  }
}

RunCheckpoint RunCheckpoint::load_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw CheckpointError("checkpoint: cannot open " + path);
  std::vector<std::byte> bytes;
  std::byte buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) throw CheckpointError("checkpoint: read error on " + path);
  return deserialize(bytes);
}

void RunCheckpoint::validate_against(const PhaseProgram& program,
                                     std::size_t want_elem_bytes) const {
  const std::string digest = program.describe();
  if (program_digest != digest) {
    throw CheckpointError("checkpoint: program digest mismatch (saved under \"" +
                          program_digest + "\", resuming under \"" + digest + "\")");
  }
  if (dim != program.dim || elem_bytes != want_elem_bytes) {
    throw CheckpointError("checkpoint: grid geometry mismatch");
  }
  if (phase_index >= program.phases.size()) {
    throw CheckpointError("checkpoint: resume phase " + std::to_string(phase_index) +
                          " is past the program's " + std::to_string(program.phases.size()) +
                          " phases");
  }
  const PhaseDesc& ph = program.phases[phase_index];
  if (!ph.streamed() && strip_index != 0) {
    throw CheckpointError("checkpoint: resume strip " + std::to_string(strip_index) +
                          " on whole-grid phase " + std::to_string(phase_index));
  }
  if (strip_index > ph.strip_count(dim)) {
    throw CheckpointError("checkpoint: resume strip " + std::to_string(strip_index) +
                          " is past phase " + std::to_string(phase_index) + "'s " +
                          std::to_string(ph.strip_count(dim)) + " strips");
  }
}

}  // namespace wavetune::core
