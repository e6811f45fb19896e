#include "core/executor.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cpu/tiled_wavefront.hpp"
#include "fault/injector.hpp"
#include "ocl/context.hpp"

namespace wavetune::core {

namespace {

/// Sentinels for the multi-GPU validity frontier (see gpu_phase_multi).
constexpr long long kValidAll = LLONG_MIN / 4;   ///< every existing row valid
constexpr long long kValidNone = LLONG_MAX / 4;  ///< no row valid

long long ll(std::size_t v) { return static_cast<long long>(v); }

using WallClock = std::chrono::steady_clock;

double wall_since(WallClock::time_point t0) {
  return std::chrono::duration<double, std::nano>(WallClock::now() - t0).count();
}

}  // namespace

// --- PhaseBreakdown derived accessors ------------------------------------

double PhaseBreakdown::total_ns() const {
  double t = 0.0;
  for (const PhaseTiming& p : phases) t += p.ns;
  return t;
}

double PhaseBreakdown::total_wall_ns() const {
  double t = 0.0;
  for (const PhaseTiming& p : phases) t += p.wall_ns;
  return t;
}

double PhaseBreakdown::phase1_ns() const {
  double t = 0.0;
  for (const PhaseTiming& p : phases) {
    if (p.device != PhaseDevice::kCpu) break;  // first GPU phase ends "phase 1"
    t += p.ns;
  }
  return t;
}

double PhaseBreakdown::gpu_ns() const {
  double t = 0.0;
  for (const PhaseTiming& p : phases) {
    if (p.device != PhaseDevice::kCpu) t += p.ns;
  }
  return t;
}

double PhaseBreakdown::phase3_ns() const { return total_ns() - phase1_ns() - gpu_ns(); }

double PhaseBreakdown::transfer_in_ns() const {
  double t = 0.0;
  for (const PhaseTiming& p : phases) t += p.transfer_in_ns;
  return t;
}

double PhaseBreakdown::transfer_out_ns() const {
  double t = 0.0;
  for (const PhaseTiming& p : phases) t += p.transfer_out_ns;
  return t;
}

double PhaseBreakdown::swap_ns() const {
  double t = 0.0;
  for (const PhaseTiming& p : phases) t += p.swap_ns;
  return t;
}

std::size_t PhaseBreakdown::kernel_launches() const {
  std::size_t n = 0;
  for (const PhaseTiming& p : phases) n += p.kernel_launches;
  return n;
}

std::size_t PhaseBreakdown::swap_count() const {
  std::size_t n = 0;
  for (const PhaseTiming& p : phases) n += p.swap_count;
  return n;
}

std::size_t PhaseBreakdown::redundant_cells() const {
  std::size_t n = 0;
  for (const PhaseTiming& p : phases) n += p.redundant_cells;
  return n;
}

// --- executor -------------------------------------------------------------

/// Run-mode state: the spec, the host grid, its control, and the device
/// buffers of the current GPU phase. Device buffers are poison-filled so
/// that any read of a cell the schedule never transferred or computed
/// produces loudly-wrong values instead of accidentally-correct zeros.
struct HybridExecutor::FunctionalCtx {
  const WavefrontSpec* spec = nullptr;
  cpu::ThreadPool* pool = nullptr;
  /// Plan-time kernel resolution (core/lowered.hpp), resolved exactly
  /// once per run — by the caller's compiled plan or at the top of
  /// run(). Every functional compute is a plain indirect call through it.
  const LoweredKernel* lowered = nullptr;

  Grid* host = nullptr;
  /// Cancellation/deadline poll (core/run_control.hpp); null on the
  /// control-free fast path.
  const RunControl* control = nullptr;
  /// One full-grid-shaped buffer per GPU, or a streamed phase's strip pool.
  std::vector<ocl::Buffer> dev;

  // Streaming checkpoint/resume plumbing.
  const StreamControl* stream = nullptr;
  std::string program_digest;     ///< PhaseProgram::describe(), for checkpoints
  std::size_t resume_phase = 0;   ///< phases before this are charge-only
  std::size_t resume_strip = 0;   ///< strips of resume_phase before this too
  bool resuming = false;

  std::size_t real_elem() const { return spec->elem_bytes; }
  std::size_t real_offset(std::size_t i, std::size_t j) const {
    return (i * spec->dim + j) * spec->elem_bytes;
  }
  /// Byte offset of cell (i, j) inside a strip-local buffer whose first
  /// resident grid row is `base_row`.
  std::size_t local_offset(std::size_t base_row, std::size_t i, std::size_t j) const {
    return ((i - base_row) * spec->dim + j) * spec->elem_bytes;
  }

  /// Computes cell (i, j): a one-cell block (diagonal sweeps have no
  /// row-contiguous runs to batch).
  void compute_cell(std::byte* storage, std::size_t i, std::size_t j) const {
    lowered->block(storage, i, i + 1, j, j + 1);
  }
  /// Strip-local variant against a row-window buffer.
  void compute_cell_local(std::byte* base, std::size_t base_row, std::size_t i,
                          std::size_t j) const {
    lowered->block_local(base, base_row, i, i + 1, j, j + 1);
  }

  /// Copies the cells of diagonals [d_begin, d_end) with rows in
  /// [row_begin, row_end) from `src` to `dst` (both full-grid-shaped).
  /// Each row's intersection with the diagonal band is one contiguous
  /// column span, so this is one memcpy per row, not one per cell.
  void copy_diag_rows(const std::byte* src, std::byte* dst, std::size_t d_begin,
                      std::size_t d_end, std::size_t row_begin, std::size_t row_end) const {
    const std::size_t dim = spec->dim;
    const std::size_t i_end = std::min(row_end, dim);
    for (std::size_t i = row_begin; i < i_end; ++i) {
      if (d_end <= i) break;  // spans only shrink as i grows
      const auto [j_lo, j_hi] = cpu::row_band_span(i, d_begin, d_end, 0, dim);
      if (j_lo >= j_hi) continue;
      const std::size_t off = real_offset(i, j_lo);
      std::memcpy(dst + off, src + off, (j_hi - j_lo) * real_elem());
    }
  }

  /// Strip-local counterparts of copy_diag_rows: one side is a row-window
  /// buffer addressed through (base, base_row). Row [row_begin, row_end)
  /// must lie inside the buffer's resident rows.
  void copy_full_to_local(const std::byte* src, std::byte* dst_base, std::size_t base_row,
                          std::size_t d_begin, std::size_t d_end, std::size_t row_begin,
                          std::size_t row_end) const {
    const std::size_t dim = spec->dim;
    const std::size_t i_end = std::min(row_end, dim);
    for (std::size_t i = row_begin; i < i_end; ++i) {
      if (d_end <= i) break;
      const auto [j_lo, j_hi] = cpu::row_band_span(i, d_begin, d_end, 0, dim);
      if (j_lo >= j_hi) continue;
      std::memcpy(dst_base + local_offset(base_row, i, j_lo), src + real_offset(i, j_lo),
                  (j_hi - j_lo) * real_elem());
    }
  }
  void copy_local_to_full(const std::byte* src_base, std::size_t base_row, std::byte* dst,
                          std::size_t d_begin, std::size_t d_end, std::size_t row_begin,
                          std::size_t row_end) const {
    const std::size_t dim = spec->dim;
    const std::size_t i_end = std::min(row_end, dim);
    for (std::size_t i = row_begin; i < i_end; ++i) {
      if (d_end <= i) break;
      const auto [j_lo, j_hi] = cpu::row_band_span(i, d_begin, d_end, 0, dim);
      if (j_lo >= j_hi) continue;
      std::memcpy(dst + real_offset(i, j_lo), src_base + local_offset(base_row, i, j_lo),
                  (j_hi - j_lo) * real_elem());
    }
  }
  /// Halo-row move between two strip-local buffers (or within one, for
  /// the 1-buffer pool — distinct rows, but memmove keeps it safe).
  void copy_local_row(const std::byte* src_base, std::size_t src_base_row,
                      std::byte* dst_base, std::size_t dst_base_row, std::size_t row,
                      std::size_t j_lo, std::size_t j_hi) const {
    if (j_lo >= j_hi) return;
    std::memmove(dst_base + local_offset(dst_base_row, row, j_lo),
                 src_base + local_offset(src_base_row, row, j_lo),
                 (j_hi - j_lo) * real_elem());
  }

  /// Emits a strip-boundary checkpoint when the stream asks for one.
  /// `next_strip` is the resume cursor, i.e. strips BELOW it are complete
  /// in the host grid.
  void maybe_checkpoint(std::size_t phase_index, std::size_t next_strip) const {
    if (!stream || !stream->on_checkpoint) return;
    const std::size_t every = std::max<std::size_t>(1, stream->checkpoint_every_strips);
    if (next_strip % every != 0) return;
    RunCheckpoint cp;
    cp.program_digest = program_digest;
    cp.dim = spec->dim;
    cp.elem_bytes = spec->elem_bytes;
    cp.phase_index = phase_index;
    cp.strip_index = next_strip;
    cp.grid.assign(host->data(), host->data() + spec->dim * spec->dim * spec->elem_bytes);
    stream->on_checkpoint(cp);
  }
};

HybridExecutor::HybridExecutor(sim::SystemProfile profile, std::size_t pool_workers)
    : profile_(std::move(profile)), pool_(pool_workers) {}

RunResult HybridExecutor::run(const WavefrontSpec& spec, const PhaseProgram& program,
                              Grid& grid, ocl::Trace* trace, const LoweredKernel* lowered,
                              const RunControl* control, const StreamControl* stream) {
  spec.validate();
  if (grid.dim() != spec.dim || grid.elem_bytes() != spec.elem_bytes) {
    throw std::invalid_argument("HybridExecutor::run: grid does not match spec");
  }
  // Kernel lowering happens HERE (or earlier, in the caller's compiled
  // plan) — once per run, never per tile/diagonal/phase.
  LoweredKernel local;
  if (!lowered) {
    local = spec.lower();
    lowered = &local;
  }
  FunctionalCtx fctx;
  fctx.spec = &spec;
  fctx.pool = &pool_;
  fctx.lowered = lowered;
  fctx.host = &grid;
  fctx.control = control;
  if (stream && (stream->resume || stream->on_checkpoint)) {
    fctx.stream = stream;
    fctx.program_digest = program.describe();
    if (stream->resume) {
      // Restore the snapshot and set the charge-only cursor: everything
      // before (resume_phase, resume_strip) is already in the grid.
      stream->resume->validate_against(fctx.program_digest, spec.dim, spec.elem_bytes);
      std::memcpy(grid.data(), stream->resume->grid.data(), stream->resume->grid.size());
      fctx.resuming = true;
      fctx.resume_phase = stream->resume->phase_index;
      fctx.resume_strip = stream->resume->strip_index;
    }
  }
  return execute(spec.inputs(), program, &fctx, trace);
}

RunResult HybridExecutor::estimate(const InputParams& in, const PhaseProgram& program,
                                   ocl::Trace* trace) const {
  in.validate();
  return execute(in, program, nullptr, trace);
}

RunResult HybridExecutor::run(const WavefrontSpec& spec, const TunableParams& params,
                              Grid& grid, ocl::Trace* trace, cpu::Scheduler scheduler,
                              const LoweredKernel* lowered) {
  return run(spec, plan_phases(spec.inputs(), params, scheduler), grid, trace, lowered);
}

RunResult HybridExecutor::estimate(const InputParams& in, const TunableParams& params,
                                   ocl::Trace* trace, cpu::Scheduler scheduler) const {
  return estimate(in, plan_phases(in, params, scheduler), trace);
}

RunResult HybridExecutor::run_serial(const WavefrontSpec& spec, Grid& grid,
                                     const LoweredKernel* lowered) const {
  spec.validate();
  if (grid.dim() != spec.dim || grid.elem_bytes() != spec.elem_bytes) {
    throw std::invalid_argument("HybridExecutor::run_serial: grid does not match spec");
  }
  cpu::TiledRegion region{spec.dim, 0, num_diagonals(spec.dim), 1};
  LoweredKernel local;
  if (!lowered) {
    local = spec.lower();
    lowered = &local;
  }
  // A full serial sweep is ONE lowered-kernel call over the whole grid.
  const WallClock::time_point wall0 = WallClock::now();
  cpu::run_serial_wavefront(region, *lowered, grid.data());
  const double wall = wall_since(wall0);
  RunResult r;
  r.params = TunableParams{1, -1, -1, 1};
  const InputParams in = spec.inputs();
  PhaseTiming t;
  t.device = PhaseDevice::kCpu;
  t.d_begin = 0;
  t.d_end = num_diagonals(spec.dim);
  t.ns = estimate_serial(in);
  t.wall_ns = wall;
  r.breakdown.phases.push_back(t);
  r.rtime_ns = r.breakdown.total_ns();
  r.wall_ns = r.breakdown.total_wall_ns();
  return r;
}

double HybridExecutor::estimate_serial(const InputParams& in) const {
  in.validate();
  cpu::TiledRegion region{in.dim, 0, num_diagonals(in.dim), 1};
  return cpu::serial_wavefront_cost_ns(region, profile_.cpu, in.tsize, in.elem_bytes());
}

RunResult HybridExecutor::execute(const InputParams& in, const PhaseProgram& program,
                                  FunctionalCtx* fctx, ocl::Trace* trace) const {
  program.validate();
  if (program.dim != in.dim) {
    throw std::invalid_argument("HybridExecutor: program dim " + std::to_string(program.dim) +
                                " does not match instance dim " + std::to_string(in.dim));
  }
  if (program.max_gpu_count() > profile_.gpu_count()) {
    throw std::invalid_argument("HybridExecutor: program requests " +
                                std::to_string(program.max_gpu_count()) + " GPU(s) but system '" +
                                profile_.name + "' has " +
                                std::to_string(profile_.gpu_count()));
  }

  RunResult result;
  result.params = program.params;
  result.breakdown.phases.reserve(program.phases.size());

  // ONE walk of the program, shared by run (fctx != nullptr) and estimate
  // (fctx == nullptr). Each phase charges its simulated time; in run mode
  // it also executes functionally — CPU phases through the selected
  // scheduler (one lowered-kernel call per tile, resolved before any
  // loop), GPU phases through the simulated devices.
  for (std::size_t p = 0; p < program.phases.size(); ++p) {
    const PhaseDesc& ph = program.phases[p];
    // Phase boundary, run mode only: the fault-injection site and the
    // cancellation/deadline poll. Estimates stay pure timing functions —
    // no site visits, no controls, so the cost model cannot be perturbed.
    // A stop abandons the run here, so cancellation latency is bounded by
    // one phase.
    if (fctx) {
      fault::check(fault::Site::kPhaseBoundary);
      if (fctx->control) {
        const RunControl::Stop stop = fctx->control->should_stop();
        if (stop != RunControl::Stop::kNone) throw ExecutionInterrupted(stop);
      }
    }
    // Resume cursor: phases before it (and strips of the cursor phase
    // before its strip index) are charge-only — the grid already holds
    // their results. The simulated schedule is walked IN FULL either way,
    // keeping the RunResult a pure function of (inputs, program).
    const bool phase_skipped = fctx && fctx->resuming && p < fctx->resume_phase;
    const std::size_t resume_strip =
        (fctx && fctx->resuming && p == fctx->resume_phase) ? fctx->resume_strip : 0;
    FunctionalCtx* f = phase_skipped ? nullptr : fctx;
    PhaseTiming t;
    t.device = ph.device;
    t.d_begin = ph.d_begin;
    t.d_end = ph.d_end;
    // Measured wall time brackets the whole phase body in run mode (the
    // functional work dominates; the simulated-charge bookkeeping rides
    // along as the phase's real fixed cost). Estimates execute nothing,
    // so their wall_ns stays exactly 0 — run/estimate parity of the
    // SIMULATED fields is untouched.
    const WallClock::time_point wall0 = fctx ? WallClock::now() : WallClock::time_point{};
    if (ph.is_cpu()) {
      if (!ph.streamed()) {
        cpu::TiledRegion region{in.dim, ph.d_begin, ph.d_end, ph.cpu_tile};
        t.ns = cpu::wavefront_cost_ns(ph.scheduler, region, profile_.cpu, in.tsize,
                                      in.elem_bytes());
        if (f) cpu::run_wavefront(ph.scheduler, region, *f->pool, *f->lowered, f->host->data());
      } else {
        // Streamed CPU phase: the strips run back to back on the host
        // grid (dependency-safe: a strip's last row is the next strip's
        // north frontier, already final when the next strip starts). No
        // overlap to buy on the host — the win is the checkpoint points
        // and the uniform strip axis — so serialized_ns == ns.
        const std::size_t strips = ph.strip_count(in.dim);
        for (std::size_t s = 0; s < strips; ++s) {
          const std::size_t r0 = s * ph.strip_rows;
          const std::size_t r1 = std::min(in.dim, r0 + ph.strip_rows);
          cpu::TiledRegion region{in.dim, ph.d_begin, ph.d_end, ph.cpu_tile, r0, r1};
          if (region.cell_count() == 0) continue;
          ++t.strips;
          t.ns += cpu::wavefront_cost_ns(ph.scheduler, region, profile_.cpu, in.tsize,
                                         in.elem_bytes());
          if (f && s >= resume_strip) {
            cpu::run_wavefront(ph.scheduler, region, *f->pool, *f->lowered, f->host->data());
            f->maybe_checkpoint(p, s + 1);
          }
        }
        t.serialized_ns = t.ns;
      }
    } else {
      gpu_phase(in, ph, f, resume_strip, p, trace, t);
    }
    if (fctx) t.wall_ns = wall_since(wall0);
    result.breakdown.phases.push_back(t);
  }

  result.rtime_ns = result.breakdown.total_ns();
  result.wall_ns = result.breakdown.total_wall_ns();
  return result;
}

void HybridExecutor::gpu_phase(const InputParams& in, const PhaseDesc& ph,
                               FunctionalCtx* fctx, std::size_t resume_strip,
                               std::size_t phase_index, ocl::Trace* trace,
                               PhaseTiming& out) const {
  if (fctx) {
    // Device storage: one full-grid-shaped buffer per device, or — for a
    // streamed phase — the fixed strip pool of strip_buffers buffers of
    // (strip_rows + 1) rows each, which is the whole point: peak residency
    // O(strip_rows * dim), not O(dim^2). Either way the buffers are
    // poison-filled so reads of cells the schedule never staged produce
    // loudly-wrong values.
    const std::size_t bytes =
        ph.streamed() ? (ph.strip_rows + 1) * in.dim * fctx->spec->elem_bytes
                      : in.dim * in.dim * fctx->spec->elem_bytes;
    const std::size_t count =
        ph.streamed() ? ph.strip_buffers : static_cast<std::size_t>(ph.gpu_count);
    fctx->dev.clear();
    for (std::size_t g = 0; g < count; ++g) {
      fctx->dev.emplace_back(bytes);
      fctx->dev.back().fill(Grid::kPoison);
    }
  }
  if (ph.gpu_count >= 2) {
    gpu_phase_multi(in, ph, fctx, trace, out);
  } else if (ph.streamed()) {
    gpu_phase_single_streamed(in, ph, fctx, resume_strip, phase_index, trace, out);
  } else {
    gpu_phase_single(in, ph, fctx, trace, out);
  }
}

void HybridExecutor::gpu_phase_single(const InputParams& in, const PhaseDesc& ph,
                                      FunctionalCtx* fctx, ocl::Trace* trace,
                                      PhaseTiming& out) const {
  const std::size_t dim = in.dim;
  const std::size_t esize = in.elem_bytes();
  const std::size_t d0 = ph.d_begin;
  const std::size_t d1 = ph.d_end;
  const std::size_t frontier_lo = d0 >= 2 ? d0 - 2 : 0;

  ocl::Context ctx(profile_);
  if (trace) ctx.attach_trace(trace);
  ocl::Device& dev = ctx.device(0);

  // Bulk transfer in: band-region input data plus the two frontier
  // diagonals the first band diagonals depend on ("data is transferred
  // from/to CPU only twice" — paper §2.1).
  const std::size_t cells_region = cells_in_diag_range(dim, d0, d1);
  const std::size_t cells_front = cells_in_diag_range(dim, frontier_lo, d0);
  const std::size_t bytes_in = (cells_region + cells_front) * esize;
  dev.charge_write(bytes_in);
  out.transfer_in_ns = ctx.pcie_model().transfer_ns(bytes_in);
  if (fctx) {
    fault::check(fault::Site::kGpuTransfer);
    fctx->copy_diag_rows(fctx->host->data(), fctx->dev[0].data(), frontier_lo, d1, 0, dim);
  }

  if (ph.gpu_tile <= 1) {
    // Untiled: one kernel per diagonal (paper Fig. 2).
    for (std::size_t d = d0; d < d1; ++d) {
      const std::size_t len = diag_len(dim, d);
      if (len == 0) continue;
      ocl::LaunchShape shape;
      shape.items = len;
      shape.tsize_units = in.tsize;
      shape.bytes_per_item = esize;
      dev.charge_kernel(shape);
      ++out.kernel_launches;
      if (fctx) {
        const std::size_t lo = diag_row_lo(dim, d);
        const std::size_t hi = diag_row_hi(dim, d);
        std::byte* storage = fctx->dev[0].data();
        for (std::size_t i = lo; i <= hi; ++i) fctx->compute_cell(storage, i, d - i);
      }
    }
  } else {
    // Tiled: one kernel per tile-diagonal; work-groups are g x g tiles
    // whose work-items run an intra-tile wavefront with barriers.
    const std::size_t g = ph.gpu_tile;
    const std::size_t Mg = (dim + g - 1) / g;
    for (std::size_t k = 0; k < 2 * Mg - 1; ++k) {
      const std::size_t span_lo = k * g;
      const std::size_t span_hi = (k + 2) * g - 2;  // inclusive
      if (span_lo >= d1 || span_hi < d0) continue;
      ocl::LaunchShape shape;
      shape.groups = std::min({k + 1, Mg, 2 * Mg - 1 - k});
      shape.serial_steps = 2 * g - 1;
      shape.syncs = 2 * g - 1;
      shape.tsize_units = in.tsize;
      shape.bytes_per_item = esize;
      shape.items = shape.groups * g * g;
      dev.charge_kernel(shape);
      ++out.kernel_launches;
      if (fctx) {
        const std::size_t i_tile_lo = diag_row_lo(Mg, k);
        const std::size_t i_tile_hi = diag_row_hi(Mg, k);
        for (std::size_t I = i_tile_lo; I <= i_tile_hi; ++I) {
          const std::size_t J = k - I;
          // One lowered-kernel call per tile, band clamp included — the
          // functional mirror of one simulated work-group.
          fctx->lowered->tile(fctx->dev[0].data(), I * g, std::min((I + 1) * g, dim), J * g,
                              std::min((J + 1) * g, dim), d0, d1);
        }
      }
    }
  }

  // Bulk transfer out: the computed band region back to the host.
  const std::size_t bytes_out = cells_region * esize;
  dev.charge_read(bytes_out);
  out.transfer_out_ns = ctx.pcie_model().transfer_ns(bytes_out);
  if (fctx) {
    fault::check(fault::Site::kGpuTransfer);
    fctx->copy_diag_rows(fctx->dev[0].data(), fctx->host->data(), d0, d1, 0, dim);
  }

  out.ns = ctx.finish_time();
}

void HybridExecutor::gpu_phase_single_streamed(const InputParams& in, const PhaseDesc& ph,
                                               FunctionalCtx* fctx,
                                               std::size_t resume_strip,
                                               std::size_t phase_index, ocl::Trace* trace,
                                               PhaseTiming& out) const {
  const std::size_t dim = in.dim;
  const std::size_t esize = in.elem_bytes();
  const std::size_t d0 = ph.d_begin;
  const std::size_t d1 = ph.d_end;
  const std::size_t frontier_lo = d0 >= 2 ? d0 - 2 : 0;
  const std::size_t strips = ph.strip_count(dim);

  // Per-strip geometry, computed once and walked twice (real pool, then
  // the 1-buffer serialized baseline).
  struct StripInfo {
    std::size_t r0 = 0, r1 = 0;  ///< row window [r0, r1)
    std::size_t up_cells = 0;    ///< frontier + band cells staged in
    std::size_t down_cells = 0;  ///< band cells read back
    std::size_t halo_j_lo = 0;   ///< row r0-1's [frontier_lo, d1) span
    std::size_t halo_j_hi = 0;
  };
  std::vector<StripInfo> info(strips);
  std::size_t s_first = strips;
  std::size_t s_last = 0;
  for (std::size_t s = 0; s < strips; ++s) {
    StripInfo& si = info[s];
    si.r0 = s * ph.strip_rows;
    si.r1 = std::min(dim, si.r0 + ph.strip_rows);
    for (std::size_t i = si.r0; i < si.r1; ++i) {
      if (d1 <= i) break;
      const auto [ulo, uhi] = cpu::row_band_span(i, frontier_lo, d1, 0, dim);
      if (ulo < uhi) si.up_cells += uhi - ulo;
      const auto [blo, bhi] = cpu::row_band_span(i, d0, d1, 0, dim);
      if (blo < bhi) si.down_cells += bhi - blo;
    }
    if (si.r0 > 0 && si.r0 <= d1) {
      const auto [hlo, hhi] = cpu::row_band_span(si.r0 - 1, frontier_lo, d1, 0, dim);
      si.halo_j_lo = hlo;
      si.halo_j_hi = hhi;
    }
    if (si.down_cells > 0) {
      s_first = std::min(s_first, s);
      s_last = std::max(s_last, s);
    }
  }
  if (s_first == strips) return;  // no band cells anywhere (cannot happen
                                  // for a validated non-empty range)
  out.strips = s_last - s_first + 1;

  // ONE parameterized walk of the strip schedule — the same routine
  // charges the real pool (with functional execution and tracing) and
  // the B == 1 serialized baseline (timing only, fresh timelines), so
  // serialized_ns is the same schedule minus the overlap by
  // construction. Per executed strip s (buffer b = (s - s_first) % B):
  //   H_s  halo row r0-1 copied into b's row 0 on the COMPUTE queue
  //        (in-order after strip s-1's kernels); first strip folds the
  //        halo into its upload instead (the row is host data).
  //   W_s  async upload of host rows [r0, r1) x [frontier_lo, d1) on the
  //        PCIe link only, gated on b's previous occupant draining
  //        (readback done, halo row re-read done) — the DMA engine: with
  //        B >= 2 this runs while strip s-1's kernels execute.
  //   K_s  the phase's kernels clipped to the strip's rows; the first
  //        launch waits on W_s, the rest ride the in-order queue.
  //   R_s  async readback of the band cells, after K_s.
  // Enqueue order per iteration: H_s, then W_{s+1} (prefetch; W_s itself
  // for B == 1 — its deps make prefetching meaningless), K_s, R_s.
  auto walk = [&](std::size_t B, ocl::Context& ctx, FunctionalCtx* f,
                  PhaseTiming* acc) -> double {
    ocl::Device& dev = ctx.device(0);
    std::vector<ocl::Event> ev_w(strips), ev_h(strips), ev_k(strips), ev_r(strips);
    std::vector<ocl::Event> deps;

    auto base_row_of = [&](std::size_t s) { return info[s].r0 == 0 ? 0 : info[s].r0 - 1; };
    auto buf_of = [&](std::size_t s) { return (s - s_first) % B; };
    // Buffer-reuse gates for strip s's writes into buffer b: the previous
    // occupant's readback, plus the halo re-read of that occupant's last
    // row by the strip after it.
    auto slot_deps = [&](std::size_t s, bool include_self_halo) {
      deps.clear();
      if (s >= s_first + B) {
        deps.push_back(ev_r[s - B]);
        const std::size_t hs = s - B + 1;
        if ((hs != s || include_self_halo) && hs > s_first && hs <= s_last &&
            info[hs].halo_j_lo < info[hs].halo_j_hi) {
          deps.push_back(ev_h[hs]);
        }
      }
    };

    auto enqueue_w = [&](std::size_t s) {
      const StripInfo& si = info[s];
      const bool fold_halo = s == s_first && si.halo_j_lo < si.halo_j_hi;
      const std::size_t cells =
          si.up_cells + (fold_halo ? si.halo_j_hi - si.halo_j_lo : 0);
      const std::size_t bytes = cells * esize;
      slot_deps(s, true);
      ev_w[s] = dev.charge_async_write(bytes, deps);
      if (acc) acc->transfer_in_ns += ctx.pcie_model().transfer_ns(bytes);
      if (f && s >= resume_strip) {
        fault::check(fault::Site::kStripTransfer);
        const std::size_t base_row = base_row_of(s);
        std::byte* buf = f->dev[buf_of(s)].data();
        f->copy_full_to_local(f->host->data(), buf, base_row, frontier_lo, d1, si.r0, si.r1);
        if (fold_halo) {
          f->copy_full_to_local(f->host->data(), buf, base_row, frontier_lo, d1, si.r0 - 1,
                                si.r0);
        }
      }
    };

    auto enqueue_h = [&](std::size_t s) {
      const StripInfo& si = info[s];
      if (s == s_first || si.halo_j_lo >= si.halo_j_hi) return;
      slot_deps(s, false);
      ev_h[s] = dev.charge_internal_copy((si.halo_j_hi - si.halo_j_lo) * esize, deps);
      if (f && s >= resume_strip) {
        std::byte* buf = f->dev[buf_of(s)].data();
        if (s == resume_strip && s > s_first) {
          // The previous strip was charge-only on this resumed run; its
          // buffer is poison, but the restored host grid holds the halo
          // row's final values. The SIMULATED charge above is the normal
          // internal copy either way — resume never perturbs the schedule.
          f->copy_full_to_local(f->host->data(), buf, base_row_of(s), frontier_lo, d1,
                                si.r0 - 1, si.r0);
        } else {
          f->copy_local_row(f->dev[buf_of(s - 1)].data(), base_row_of(s - 1), buf,
                            base_row_of(s), si.r0 - 1, si.halo_j_lo, si.halo_j_hi);
        }
      }
    };

    auto enqueue_k = [&](std::size_t s) {
      const StripInfo& si = info[s];
      const std::size_t b = buf_of(s);
      const std::size_t base_row = base_row_of(s);
      bool first_launch = true;
      auto launch = [&](const ocl::LaunchShape& shape) {
        deps.clear();
        if (first_launch) {
          deps.push_back(ev_w[s]);
          first_launch = false;
        }
        ev_k[s] = dev.charge_kernel(shape, deps);
        if (acc) {
          ++acc->kernel_launches;
          acc->kernel_busy_ns +=
              shape.groups == 0
                  ? dev.model().kernel_ns(shape.items, shape.tsize_units,
                                          shape.bytes_per_item)
                  : dev.model().tiled_kernel_ns(shape.groups, shape.serial_steps,
                                                shape.syncs, shape.tsize_units,
                                                shape.bytes_per_item);
        }
      };
      if (ph.gpu_tile <= 1) {
        // Untiled: one kernel per diagonal, items clipped to the strip.
        for (std::size_t d = d0; d < d1; ++d) {
          const std::size_t n = diag_rows_in(dim, d, si.r0, si.r1);
          if (n == 0) continue;
          ocl::LaunchShape shape;
          shape.items = n;
          shape.tsize_units = in.tsize;
          shape.bytes_per_item = esize;
          launch(shape);
          if (f && s >= resume_strip) {
            const std::size_t lo = std::max(diag_row_lo(dim, d), si.r0);
            const std::size_t hi = std::min(diag_row_hi(dim, d), si.r1 - 1);
            std::byte* base = f->dev[b].data();
            for (std::size_t i = lo; i <= hi; ++i) f->compute_cell_local(base, base_row, i, d - i);
          }
        }
      } else {
        // Tiled: one kernel per tile-diagonal, work-groups clipped to the
        // strip's tile rows; tiles straddling the strip boundary relaunch
        // with their rows clamped (honest strip-execution cost).
        const std::size_t g = ph.gpu_tile;
        const std::size_t Mg = (dim + g - 1) / g;
        const std::size_t I_strip_lo = si.r0 / g;
        const std::size_t I_strip_hi = (si.r1 - 1) / g;
        for (std::size_t k = 0; k < 2 * Mg - 1; ++k) {
          const std::size_t span_lo = k * g;
          const std::size_t span_hi = (k + 2) * g - 2;  // inclusive
          if (span_lo >= d1 || span_hi < d0) continue;
          const std::size_t I_lo = std::max(diag_row_lo(Mg, k), I_strip_lo);
          const std::size_t I_hi = std::min(diag_row_hi(Mg, k), I_strip_hi);
          if (I_lo > I_hi) continue;
          ocl::LaunchShape shape;
          shape.groups = I_hi - I_lo + 1;
          shape.serial_steps = 2 * g - 1;
          shape.syncs = 2 * g - 1;
          shape.tsize_units = in.tsize;
          shape.bytes_per_item = esize;
          shape.items = shape.groups * g * g;
          launch(shape);
          if (f && s >= resume_strip) {
            for (std::size_t I = I_lo; I <= I_hi; ++I) {
              const std::size_t J = k - I;
              const std::size_t i0 = std::max(I * g, si.r0);
              const std::size_t i1 = std::min({(I + 1) * g, dim, si.r1});
              f->lowered->tile_local(f->dev[b].data(), base_row, i0, i1, J * g,
                                     std::min((J + 1) * g, dim), d0, d1);
            }
          }
        }
      }
    };

    auto enqueue_r = [&](std::size_t s) {
      const StripInfo& si = info[s];
      const std::size_t bytes = si.down_cells * esize;
      deps.clear();
      deps.push_back(ev_k[s]);
      ev_r[s] = dev.charge_async_read(bytes, deps);
      if (acc) acc->transfer_out_ns += ctx.pcie_model().transfer_ns(bytes);
      if (f && s >= resume_strip) {
        fault::check(fault::Site::kStripTransfer);
        f->copy_local_to_full(f->dev[buf_of(s)].data(), base_row_of(s), f->host->data(), d0, d1,
                              si.r0, si.r1);
        f->maybe_checkpoint(phase_index, s + 1);
      }
    };

    if (B > 1) enqueue_w(s_first);
    for (std::size_t s = s_first; s <= s_last; ++s) {
      enqueue_h(s);
      if (B == 1) {
        enqueue_w(s);
      } else if (s + 1 <= s_last) {
        enqueue_w(s + 1);
      }
      enqueue_k(s);
      enqueue_r(s);
    }
    return ctx.finish_time();
  };

  ocl::Context ctx(profile_);
  if (trace) ctx.attach_trace(trace);
  out.ns = walk(ph.strip_buffers, ctx, fctx, &out);
  if (ph.strip_buffers > 1) {
    // Serialized-strip baseline: identical strips, 1-buffer pool, fresh
    // timelines, no functional work, no trace, no fault sites.
    ocl::Context baseline(profile_);
    out.serialized_ns = walk(1, baseline, nullptr, nullptr);
  } else {
    out.serialized_ns = out.ns;
  }
}

void HybridExecutor::gpu_phase_multi(const InputParams& in, const PhaseDesc& ph,
                                     FunctionalCtx* fctx, ocl::Trace* trace,
                                     PhaseTiming& out) const {
  const std::size_t dim = in.dim;
  const std::size_t esize = in.elem_bytes();
  const std::size_t d0 = ph.d_begin;
  const std::size_t d1 = ph.d_end;
  const std::size_t frontier_lo = d0 >= 2 ? d0 - 2 : 0;
  const auto n = static_cast<std::size_t>(ph.gpu_count);
  const long long h = ph.halo;  // redundancy depth (>= 0)

  // Fixed row split: device g owns rows [split[g], split[g+1]).
  std::vector<long long> split(n + 1);
  for (std::size_t g = 0; g <= n; ++g) {
    split[g] = static_cast<long long>(dim * g / n);
  }
  // Per-device wedge floor: the initial transfer / every swap across
  // boundary split[g] delivers rows >= wedge_lo[g].
  std::vector<long long> wedge_lo(n, 0);
  for (std::size_t g = 1; g < n; ++g) wedge_lo[g] = std::max(0LL, split[g] - h - 1);

  ocl::Context ctx(profile_);
  if (trace) ctx.attach_trace(trace);

  // Initial transfers: device g gets rows [wedge_lo[g], split[g+1]) of the
  // frontier + region (its own band plus the initial halo wedge).
  for (std::size_t g = 0; g < n; ++g) {
    std::size_t cells_in = 0;
    for (std::size_t d = frontier_lo; d < d1; ++d) {
      cells_in += diag_rows_in(dim, d, static_cast<std::size_t>(wedge_lo[g]),
                               static_cast<std::size_t>(split[g + 1]));
    }
    ctx.device(g).charge_write(cells_in * esize);
    out.transfer_in_ns += ctx.pcie_model().transfer_ns(cells_in * esize);
    if (fctx) {
      fault::check(fault::Site::kGpuTransfer);
      fctx->copy_diag_rows(fctx->host->data(), fctx->dev[g].data(), frontier_lo, d1,
                           static_cast<std::size_t>(wedge_lo[g]),
                           static_cast<std::size_t>(split[g + 1]));
    }
  }

  // Validity frontier of each device's copy on the previous two
  // diagonals: the lowest row whose value is current.
  auto frontier_v = [&](std::size_t g, long long d) -> long long {
    if (g == 0) return kValidAll;  // device 0 needs nothing from upstream
    if (d < ll(frontier_lo) || d < 0) return kValidAll;
    return wedge_lo[g] <= ll(diag_row_lo(dim, static_cast<std::size_t>(d))) ? kValidAll
                                                                            : wedge_lo[g];
  };
  std::vector<long long> v_dm1(n);
  std::vector<long long> v_dm2(n);
  for (std::size_t g = 0; g < n; ++g) {
    v_dm1[g] = frontier_v(g, ll(d0) - 1);
    v_dm2[g] = frontier_v(g, ll(d0) - 2);
  }

  for (std::size_t d = d0; d < d1; ++d) {
    const long long i_lo = ll(diag_row_lo(dim, d));
    const long long i_hi = ll(diag_row_hi(dim, d));

    // Plan each device's row range; fire the chained halo swaps first so
    // their transfers precede this diagonal's kernels on the timelines.
    std::vector<bool> active(n, false);
    std::vector<long long> compute_lo(n, 0);
    std::vector<long long> compute_hi(n, -1);
    for (std::size_t g = 0; g < n; ++g) {
      const long long own_lo = std::max(split[g], i_lo);
      const long long own_hi = std::min(split[g + 1] - 1, i_hi);
      compute_hi[g] = own_hi;
      if (own_lo > own_hi) continue;  // no owned cells on this diagonal
      active[g] = true;
      long long can_lo = std::max({std::max(v_dm1[g], v_dm2[g]) + 1, i_lo});
      if (can_lo > own_lo) {
        // Halo swap: device g-1 -> host -> device g, strips
        // [wedge_lo[g], split[g]) of the two previous diagonals
        // (paper Fig. 3, chained across every internal boundary).
        std::size_t strip_cells = 0;
        for (long long pd = ll(d) - 2; pd <= ll(d) - 1; ++pd) {
          if (pd < 0) continue;
          strip_cells += diag_rows_in(dim, static_cast<std::size_t>(pd),
                                      static_cast<std::size_t>(wedge_lo[g]),
                                      static_cast<std::size_t>(split[g]));
        }
        const std::size_t bytes = strip_cells * esize;
        ctx.device(g - 1).charge_copy_to(ctx.device(g), bytes);
        out.swap_ns += 2.0 * ctx.pcie_model().transfer_ns(bytes);
        ++out.swap_count;
        if (fctx) {
          for (long long pd = ll(d) - 2; pd <= ll(d) - 1; ++pd) {
            if (pd < 0) continue;
            fctx->copy_diag_rows(fctx->dev[g - 1].data(), fctx->dev[g].data(),
                                 static_cast<std::size_t>(pd), static_cast<std::size_t>(pd) + 1,
                                 static_cast<std::size_t>(wedge_lo[g]),
                                 static_cast<std::size_t>(split[g]));
          }
        }
        v_dm1[g] = std::min(v_dm1[g], wedge_lo[g]);
        v_dm2[g] = std::min(v_dm2[g], wedge_lo[g]);
        can_lo = std::max({std::max(v_dm1[g], v_dm2[g]) + 1, i_lo});
      }
      compute_lo[g] = can_lo;
      out.redundant_cells += static_cast<std::size_t>(std::max(0LL, own_lo - can_lo));
    }

    // Launch this diagonal's kernels (devices run concurrently).
    for (std::size_t g = 0; g < n; ++g) {
      if (!active[g]) {
        v_dm2[g] = v_dm1[g];
        v_dm1[g] = kValidNone;  // computed nothing: its copy of d is stale
        continue;
      }
      ocl::LaunchShape shape;
      shape.items = static_cast<std::size_t>(compute_hi[g] - compute_lo[g] + 1);
      shape.tsize_units = in.tsize;
      shape.bytes_per_item = esize;
      ctx.device(g).charge_kernel(shape);
      ++out.kernel_launches;
      if (fctx) {
        std::byte* storage = fctx->dev[g].data();
        for (long long i = compute_lo[g]; i <= compute_hi[g]; ++i) {
          fctx->compute_cell(storage, static_cast<std::size_t>(i),
                             d - static_cast<std::size_t>(i));
        }
      }
      v_dm2[g] = v_dm1[g];
      v_dm1[g] = compute_lo[g] <= i_lo ? kValidAll : compute_lo[g];
    }
  }

  // Bulk transfers out: each device returns its owned region cells.
  for (std::size_t g = 0; g < n; ++g) {
    std::size_t cells_out = 0;
    for (std::size_t d = d0; d < d1; ++d) {
      cells_out += diag_rows_in(dim, d, static_cast<std::size_t>(split[g]),
                                static_cast<std::size_t>(split[g + 1]));
    }
    ctx.device(g).charge_read(cells_out * esize);
    out.transfer_out_ns += ctx.pcie_model().transfer_ns(cells_out * esize);
    if (fctx) {
      fault::check(fault::Site::kGpuTransfer);
      fctx->copy_diag_rows(fctx->dev[g].data(), fctx->host->data(), d0, d1,
                           static_cast<std::size_t>(split[g]),
                           static_cast<std::size_t>(split[g + 1]));
    }
  }

  out.ns = ctx.finish_time();
}

}  // namespace wavetune::core
