// Tiled parallel wavefront execution on the multicore CPU.
//
// The grid is partitioned into TxT tiles; tile (I,J) depends on its west,
// north and north-west neighbour tiles, so tiles on the same tile-diagonal
// (I+J = k) are independent and run in parallel, with a barrier between
// successive tile-diagonals. Within a tile, cells are computed row-major,
// which respects the cell-level dependencies and maximises cache reuse —
// the optimization the paper's cpu-tile parameter controls.
//
// The module operates on an abstract "compute cell (i,j)" callback plus a
// diagonal range, so the hybrid executor can use it for phases 1 and 3 and
// tests can drive it with any recurrence. The diagonal-geometry algebra
// comes from core/diag.hpp — the single definition shared with the GPU
// partitioner and the cost model.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>

#include "core/lowered.hpp"
#include "cpu/thread_pool.hpp"
#include "sim/hardware.hpp"

namespace wavetune::cpu {

/// Computes the value of cell (i, j); the callee reads whatever neighbour
/// state it needs. Must be safe to call concurrently for cells on the same
/// diagonal.
using CellFn = std::function<void(std::size_t i, std::size_t j)>;

/// Computes the contiguous run of cells (i, j) for j in [j_begin, j_end)
/// in one call — the batched counterpart of CellFn that the hot loops
/// dispatch (one call per clamped row-span instead of one per cell). Must
/// be safe to call concurrently for segments of independent tiles.
using RowSegmentFn = std::function<void(std::size_t i, std::size_t j_begin, std::size_t j_end)>;

/// Adapts a per-cell callee onto the batched traversal. Captures `cell` by
/// reference: the adapter must not outlive it.
inline RowSegmentFn per_cell_adapter(const CellFn& cell) {
  return [&cell](std::size_t i, std::size_t j_begin, std::size_t j_end) {
    for (std::size_t j = j_begin; j < j_end; ++j) cell(i, j);
  };
}

/// Column span of row i clamped to the diagonal band — the single clamp
/// algebra, now defined in core/diag.hpp (the lowered-kernel dispatch
/// needs it below the cpu layer); re-exported here for the cpu call sites.
using core::row_band_span;

/// Scheduling grain for one tile-diagonal of `n_tiles` tiles of side
/// `tile`: batch enough tiles per parallel_for claim that tiny tiles don't
/// pay one atomic RMW each, without starving the pool of parallel slack.
/// Calibrated for one-call-per-tile lowered dispatch (the per-claim
/// overhead is one atomic RMW plus one indirect call per tile, not one
/// type-erased call per tile row).
std::size_t tile_grain(std::size_t n_tiles, std::size_t tile, std::size_t workers);

/// A contiguous band of diagonals [d_begin, d_end) of a dim x dim grid,
/// executed with square tiles of side `tile`. An optional row window
/// [row_begin, row_hi()) — the streaming-strip axis — further restricts
/// the region to those rows; the default (row_end == 0, meaning dim)
/// keeps the historical whole-grid behaviour, so aggregate-initialized
/// call sites are unchanged.
struct TiledRegion {
  std::size_t dim = 0;
  std::size_t d_begin = 0;  ///< first diagonal (i+j) included
  std::size_t d_end = 0;    ///< one past the last diagonal included
  std::size_t tile = 1;     ///< cpu-tile: side length of the square tiles
  std::size_t row_begin = 0;  ///< first row included (strip window)
  std::size_t row_end = 0;    ///< one past the last row; 0 = dim (whole grid)

  /// One past the last row included (resolves the row_end == 0 default).
  std::size_t row_hi() const { return row_end == 0 ? dim : row_end; }
  bool row_windowed() const { return row_begin > 0 || row_hi() < dim; }

  /// Number of cells with d_begin <= i+j < d_end and i in the row window
  /// (exact).
  std::size_t cell_count() const;

  /// Throws std::invalid_argument if the region is malformed.
  void validate() const;
};

/// Functionally executes the region: every cell with i+j in
/// [d_begin, d_end) is visited exactly once, in an order that respects the
/// wavefront dependencies. Tiles of one tile-diagonal run concurrently on
/// `pool`.
///
/// The LoweredKernel overload is the hot path: each tile is exactly ONE
/// indirect call into the lowered kernel over `storage` (a full-grid-
/// shaped row-major byte array) — the row loop, neighbour-pointer advance
/// and band clamp all live inside the call; nothing type-erased is
/// invoked per tile. The RowSegmentFn overload dispatches one type-erased
/// call per clamped tile row (the segment ABI); the CellFn overload
/// adapts per-cell callees onto the same traversal. All three visit the
/// identical cell order.
void run_tiled_wavefront(const TiledRegion& region, ThreadPool& pool,
                         const core::LoweredKernel& kernel, std::byte* storage);
void run_tiled_wavefront(const TiledRegion& region, ThreadPool& pool,
                         const RowSegmentFn& segment);
void run_tiled_wavefront(const TiledRegion& region, ThreadPool& pool, const CellFn& cell);

/// Sequential reference: visits the same cells in row-major order (which
/// also respects dependencies). Used as the correctness oracle in tests
/// and as the functional part of the sequential baseline. The
/// LoweredKernel overload executes a fully-in-band region as a SINGLE
/// kernel call over the whole rectangle (row-major order satisfies every
/// dependency); banded regions degrade to one call per clamped row. The
/// segment overload issues one type-erased call per row.
void run_serial_wavefront(const TiledRegion& region, const core::LoweredKernel& kernel,
                          std::byte* storage);
void run_serial_wavefront(const TiledRegion& region, const RowSegmentFn& segment);
void run_serial_wavefront(const TiledRegion& region, const CellFn& cell);

/// Simulated time of run_tiled_wavefront on `cpu`: per tile-diagonal,
/// max(1, tiles/P) tile slots of (T^2 elements + scheduling) plus a
/// barrier. Deterministic in the parameters only — the hybrid executor's
/// run() and estimate() both charge exactly this.
double tiled_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                               double tsize_units, std::size_t elem_bytes);

/// Simulated time of the optimized sequential baseline over the region
/// (no tiling, no scheduling overhead, cache-friendly row-major sweep).
double serial_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                                double tsize_units, std::size_t elem_bytes);

}  // namespace wavetune::cpu
