// Tiled wavefront geometry on the multicore CPU.
//
// The grid is partitioned into TxT tiles; tile (I,J) depends on its west,
// north and north-west neighbour tiles, so tiles on the same tile-diagonal
// (I+J = k) are independent. Within a tile, cells are computed row-major,
// which respects the cell-level dependencies and maximises cache reuse —
// the optimization the paper's cpu-tile parameter controls.
//
// This header holds what both CPU schedulers share: the region a phase or
// strip covers (a diagonal band, optionally a row window), the scheduling
// grain, the serial reference sweep, and the simulated cost of the
// barriered schedule and of the serial baseline. The schedulers
// themselves sit behind the one functional entry point,
// cpu::run_wavefront (cpu/dataflow_wavefront.hpp). Every sweep dispatches
// a core::LoweredKernel; cell and segment kernels get there through
// WavefrontSpec::lower(). The diagonal-geometry algebra comes from
// core/diag.hpp — the single definition shared with the GPU partitioner
// and the cost model.
#pragma once

#include <cstddef>

#include "core/lowered.hpp"
#include "sim/hardware.hpp"

namespace wavetune::cpu {

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

  /// Number of cells with d_begin <= i+j < d_end and i in the row window
  /// (exact).
  std::size_t cell_count() const;

  /// Throws std::invalid_argument if the region is malformed.
  void validate() const;
};

/// Sequential reference: visits the region's cells in row-major order
/// (which respects every dependency). Used as the correctness oracle in
/// tests and as the functional part of the sequential baseline. A
/// fully-in-band region is a SINGLE kernel call over the whole rectangle;
/// banded regions degrade to one call per clamped row inside
/// LoweredKernel::tile().
void run_serial_wavefront(const TiledRegion& region, const core::LoweredKernel& kernel,
                          std::byte* storage);

/// Simulated time of the barriered schedule (run_wavefront under
/// Scheduler::kBarrier) on `cpu`: per tile-diagonal,
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
