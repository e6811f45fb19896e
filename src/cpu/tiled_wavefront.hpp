// Tiled wavefront geometry on the multicore CPU.
//
// The grid is partitioned into TxT tiles; tile (I,J) depends on its west,
// north and north-west neighbour tiles, so tiles on the same tile-diagonal
// (I+J = k) are independent. Within a tile, cells are computed row-major,
// which respects the cell-level dependencies and maximises cache reuse —
// the optimization the paper's cpu-tile parameter controls.
//
// This header holds the geometry every sweep and cost model shares: the
// region a phase, strip or multi-GPU halo epoch covers (a diagonal band,
// optionally clipped to a row window and a column cap), the tiles that
// region visits, the serial reference sweep, and the simulated cost of
// the barriered schedule and of the serial baseline. The one functional
// sweep, cpu::run_wavefront, lives in cpu/dataflow_wavefront.hpp. Every
// sweep dispatches a core::LoweredKernel; cell and segment kernels get
// there through WavefrontSpec::lower(). The diagonal-geometry algebra
// comes from core/diag.hpp — the single definition shared with the GPU
// partitioner and the cost model.
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/lowered.hpp"
#include "sim/hardware.hpp"

namespace wavetune::cpu {

/// Column span of row i clamped to the diagonal band — the single clamp
/// algebra, now defined in core/diag.hpp (the lowered-kernel dispatch
/// needs it below the cpu layer); re-exported here for the cpu call sites.
using core::row_band_span;

/// A contiguous band of diagonals [d_begin, d_end) of a dim x dim grid,
/// executed with square tiles of side `tile`. An optional row window
/// [row_begin, row_hi()) — the streaming-strip axis — and an optional
/// column cap [0, col_hi()) further restrict the region; the defaults
/// (row_end == 0 and col_end == 0, meaning dim) keep the whole-grid
/// behaviour, so aggregate-initialized call sites are unchanged. The
/// column cap is what a multi-GPU halo epoch needs: a device's validity
/// frontier climbs one row per diagonal after a swap, which caps the
/// columns it can compute (see core::HybridExecutor::gpu_phase_multi).
struct TiledRegion {
  std::size_t dim = 0;
  std::size_t d_begin = 0;  ///< first diagonal (i+j) included
  std::size_t d_end = 0;    ///< one past the last diagonal included
  std::size_t tile = 1;     ///< cpu-tile: side length of the square tiles
  std::size_t row_begin = 0;  ///< first row included (strip window)
  std::size_t row_end = 0;    ///< one past the last row; 0 = dim (whole grid)
  std::size_t col_end = 0;    ///< one past the last column; 0 = dim (no cap)

  /// One past the last row included (resolves the row_end == 0 default).
  std::size_t row_hi() const { return row_end == 0 ? dim : row_end; }
  /// One past the last column included (resolves the col_end == 0 default).
  std::size_t col_hi() const { return col_end == 0 ? dim : col_end; }

  /// Number of cells with d_begin <= i+j < d_end, i in the row window and
  /// j below the column cap (exact, O(1)).
  std::size_t cell_count() const;

  /// Throws std::invalid_argument if the region is malformed.
  void validate() const;
};

/// The tiles a region's sweep visits: tile (I, J) is in the set when its
/// tile-diagonal k = I + J spans a diagonal of the band, its rows meet
/// the row window and its columns meet the column cap. The scheduler and
/// both tiled cost models walk exactly this set.
struct TileWindow {
  explicit TileWindow(const TiledRegion& region);

  std::size_t M = 0;     ///< tiles per side
  std::size_t k_lo = 1;  ///< tile-diagonals [k_lo, k_hi]; empty when k_lo > k_hi
  std::size_t k_hi = 0;
  std::size_t I_lo = 0;  ///< tile rows [I_lo, I_hi)
  std::size_t I_hi = 0;
  std::size_t J_hi = 0;  ///< tile columns [0, J_hi)

  // Tile rows on a tile-diagonal follow the algebra of cell rows on a cell
  // diagonal of an MxM grid (core::diag_row_lo / diag_row_hi with
  // dim = M), clipped to the window. The column bound J < J_hi <= M
  // bounds the row from below, I = k - J > k - J_hi, which subsumes
  // diag_row_lo's I > k - M; the row bound I < I_hi <= M likewise
  // subsumes diag_row_hi's I < M. These run per tile in the sweep, so
  // they are defined here to inline.

  /// First and last tile row of tile-diagonal k inside the window (the
  /// diagonal holds no tile of the set when first_row(k) > last_row(k)).
  std::size_t first_row(std::size_t k) const {
    return std::max(I_lo, k + 1 >= J_hi ? k + 1 - J_hi : 0);
  }
  std::size_t last_row(std::size_t k) const { return std::min(k, I_hi - 1); }
  /// Whether tile (I, J) is in the set.
  bool contains(std::size_t I, std::size_t J) const {
    if (I < I_lo || I >= I_hi || J >= J_hi) return false;
    const std::size_t k = I + J;
    return k >= k_lo && k <= k_hi;
  }
};

/// Sequential reference: visits the region's cells in row-major order
/// (which respects every dependency). Used as the correctness oracle in
/// tests, as the functional part of the sequential baseline, and for
/// multi-GPU halo epochs too small to wake the pool for. A fully-in-band
/// region is a SINGLE kernel call over the whole rectangle; banded
/// regions degrade to one call per clamped row inside
/// LoweredKernel::tile().
void run_serial_wavefront(const TiledRegion& region, const core::LoweredKernel& kernel,
                          std::byte* storage);

/// Simulated time of the barriered schedule (Scheduler::kBarrier, the
/// discipline the paper's figures price) on `cpu`: per tile-diagonal,
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
