// The one functional CPU wavefront sweep, cpu::run_wavefront, and the
// cost models of the two scheduling disciplines that price it.
//
// The sweep schedules tiles by readiness (dataflow): only a tile's north
// and west neighbours gate it, so
//
//   * every in-set tile carries an atomic remaining-dependency counter
//     (0, 1 or 2: its north and west neighbours clamped to the region —
//     out-of-region neighbours don't count);
//   * the worker that finishes tile (I,J) decrements the counters of
//     (I+1,J) and (I,J+1); when both become ready it continues INLINE into
//     the east tile (row-major layout: the east tile extends the rows just
//     written, so the continuation consumes cache-hot lines) and pushes
//     the south tile onto its own deque;
//   * idle workers steal pushed tiles from the deques (ThreadPool's
//     work-stealing substrate), and the calling thread helps until the
//     queues run dry.
//
// There is no barrier anywhere: the schedule's span is the tile-grid
// critical path, not the sum of per-diagonal maxima. The sweep is
// bit-identical to run_serial_wavefront for any deterministic kernel —
// every cell is computed exactly once, row-major within its tile, from
// fully-computed neighbours.
//
// Scheduling disciplines are a PRICE, not a path: PhaseDesc::scheduler
// selects which cost model charges a CPU phase's simulated time — the
// paper's barriered per-tile-diagonal sweep (tiled_wavefront_cost_ns) or
// the dataflow critical-path model below — while every phase runs through
// the same dataflow sweep.
#pragma once

#include <cstddef>

#include "cpu/thread_pool.hpp"
#include "cpu/tiled_wavefront.hpp"
#include "sim/hardware.hpp"

namespace wavetune::cpu {

/// The cost model that prices a CPU phase.
enum class Scheduler {
  kBarrier,   ///< one barrier per tile-diagonal (the paper's schedule)
  kDataflow,  ///< dependency counters + work stealing (this module)
};

/// "barrier" / "dataflow" (stable names used by benches and logs).
const char* scheduler_name(Scheduler s);

/// THE functional CPU sweep: executes every cell of the region (i+j in
/// [d_begin, d_end), rows in the row window, columns below the cap)
/// exactly once, in an order that respects the wavefront dependencies,
/// spread over `pool` and the calling thread. Each tile is ONE indirect
/// call into the lowered kernel over `storage` (see core/lowered.hpp): the
/// row loop, neighbour-pointer advance and band clamp all live inside the
/// call. Exceptions thrown by the kernel — including from tiles stolen by
/// other workers — propagate to the caller (first one wins); remaining
/// tiles are skipped.
///
/// `storage` is full-grid storage by default. A non-zero `base_row` makes
/// it a row-window buffer holding grid rows [base_row, ...) at the full
/// row stride (a streamed GPU phase's strip buffer, see
/// core::LoweredKernel::tile_local); the region's row window must then
/// start strictly below it (base_row < region.row_begin), so every north
/// neighbour the sweep reads lies inside the buffer.
void run_wavefront(const TiledRegion& region, ThreadPool& pool,
                   const core::LoweredKernel& kernel, std::byte* storage,
                   std::size_t base_row = 0);

/// Simulated time of the dataflow schedule on `cpu`: a critical-path
/// model. Per-tile cost is T^2 elements plus CpuModel::dataflow_dep_ns of
/// dependency bookkeeping (counter updates + deque traffic) — there is no
/// barrier_ns term and no per-diagonal slot rounding. The schedule takes
/// max(critical path, total work / P): the tile-diagonal count times the
/// tile cost when the wavefront's span dominates, the work-conserving
/// bound otherwise.
double dataflow_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                                  double tsize_units, std::size_t elem_bytes);

/// Simulated time of a CPU sweep of `region` priced under discipline `s`.
double wavefront_cost_ns(Scheduler s, const TiledRegion& region, const sim::CpuModel& cpu,
                         double tsize_units, std::size_t elem_bytes);

}  // namespace wavetune::cpu
