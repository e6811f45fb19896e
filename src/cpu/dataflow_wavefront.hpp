// Dependency-counter (dataflow) tile scheduling for the CPU wavefront.
//
// run_tiled_wavefront steps the tile grid one anti-diagonal at a time with
// a full barrier between diagonals: 2M-1 barriers for an MxM tile grid,
// workers idling at the ragged edges of every diagonal, and a tile's
// producer->consumer reuse never staying on one core. Only a tile's north
// and west neighbours actually gate it, so this module schedules tiles by
// readiness instead:
//
//   * every in-band tile carries an atomic remaining-dependency counter
//     (0, 1 or 2: its north and west neighbours clamped to the diagonal
//     band — out-of-band neighbours don't count);
//   * the worker that finishes tile (I,J) decrements the counters of
//     (I+1,J) and (I,J+1); when both become ready it continues INLINE into
//     the east tile (row-major layout: the east tile extends the rows just
//     written, so the continuation consumes cache-hot lines) and pushes
//     the south tile onto its own deque;
//   * idle workers steal pushed tiles from the deques (ThreadPool's
//     work-stealing substrate).
//
// There is no barrier anywhere: the schedule's span is the tile-grid
// critical path, not the sum of per-diagonal maxima. Results are
// bit-identical to run_serial_wavefront for any deterministic kernel —
// every cell is computed exactly once, row-major within its tile, from
// fully-computed neighbours.
#pragma once

#include <cstddef>

#include "cpu/thread_pool.hpp"
#include "cpu/tiled_wavefront.hpp"
#include "sim/hardware.hpp"

namespace wavetune::cpu {

/// CPU wavefront scheduling discipline for the executor's phases 1 and 3.
enum class Scheduler {
  kBarrier,   ///< per-tile-diagonal parallel_for (run_tiled_wavefront)
  kDataflow,  ///< dependency counters + work stealing (this module)
};

/// "barrier" / "dataflow" (stable names used by benches and logs).
const char* scheduler_name(Scheduler s);

/// Functionally executes the region under dataflow scheduling: every cell
/// with i+j in [d_begin, d_end) is visited exactly once, in an order that
/// respects the wavefront dependencies. The LoweredKernel overload is the
/// hot path: each tile body is exactly ONE indirect call over `storage`
/// (see core/lowered.hpp); the segment overload dispatches one
/// type-erased call per clamped row-span; the CellFn overload adapts
/// per-cell callees onto the same traversal. Exceptions thrown by the
/// callee — including from tiles stolen by other workers — propagate to
/// the caller (first one wins); remaining tiles are skipped.
void run_dataflow_wavefront(const TiledRegion& region, ThreadPool& pool,
                            const core::LoweredKernel& kernel, std::byte* storage);
void run_dataflow_wavefront(const TiledRegion& region, ThreadPool& pool,
                            const RowSegmentFn& segment);
void run_dataflow_wavefront(const TiledRegion& region, ThreadPool& pool, const CellFn& cell);

/// Simulated time of run_dataflow_wavefront on `cpu`: a critical-path
/// model. Per-tile cost is T^2 elements plus CpuModel::dataflow_dep_ns of
/// dependency bookkeeping (counter updates + deque traffic) — there is no
/// barrier_ns term and no per-diagonal slot rounding. The schedule takes
/// max(critical path, total work / P): the tile-diagonal count times the
/// tile cost when the wavefront's span dominates, the work-conserving
/// bound otherwise.
double dataflow_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                                  double tsize_units, std::size_t elem_bytes);

/// Dispatch helpers: one switch point for the executor's CPU phases. The
/// LoweredKernel overload is what the executor uses.
void run_wavefront(Scheduler s, const TiledRegion& region, ThreadPool& pool,
                   const core::LoweredKernel& kernel, std::byte* storage);
void run_wavefront(Scheduler s, const TiledRegion& region, ThreadPool& pool,
                   const RowSegmentFn& segment);
double wavefront_cost_ns(Scheduler s, const TiledRegion& region, const sim::CpuModel& cpu,
                         double tsize_units, std::size_t elem_bytes);

}  // namespace wavetune::cpu
