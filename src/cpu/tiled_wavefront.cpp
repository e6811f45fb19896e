#include "cpu/tiled_wavefront.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/diag.hpp"

namespace wavetune::cpu {

std::size_t TiledRegion::cell_count() const {
  // core/diag.hpp is the single source of the diagonal-length algebra.
  return core::cells_in_rows(dim, d_begin, d_end, row_begin, row_hi());
}

void TiledRegion::validate() const {
  if (dim == 0) throw std::invalid_argument("TiledRegion: dim == 0");
  if (tile == 0) throw std::invalid_argument("TiledRegion: tile == 0");
  if (d_begin > d_end) throw std::invalid_argument("TiledRegion: d_begin > d_end");
  if (d_end > 2 * dim - 1) throw std::invalid_argument("TiledRegion: d_end beyond last diagonal");
  if (row_end > dim) throw std::invalid_argument("TiledRegion: row_end beyond the grid");
  if (row_begin >= row_hi()) throw std::invalid_argument("TiledRegion: empty row window");
}

std::size_t tile_grain(std::size_t n_tiles, std::size_t tile, std::size_t workers) {
  // Calibrated for one-call-per-tile lowered dispatch. Two thresholds:
  //
  //  * kInlineCells: farming a tile-diagonal out to the pool costs
  //    helper submissions plus a CV wakeup/sleep cycle per helper
  //    (microseconds). A diagonal whose ENTIRE work is below this many
  //    cells (~a microsecond at ns-scale kernels) finishes faster on the
  //    calling thread than the wakeup alone would take — returning the
  //    full range as one grain makes parallel_for run it inline with
  //    zero pool traffic. Pre-lowering, each tile also paid T
  //    type-erased calls that dwarfed this accounting; with one indirect
  //    call per tile the scheduling machinery IS the overhead. The
  //    threshold is cell-count-based (tile_grain sees no kernel cost),
  //    so it deliberately stays small: for an expensive kernel the worst
  //    case is one claim's worth of work serialized, the same exposure
  //    the per-claim batching below always had.
  //  * kMinCellsPerClaim: once the pool is engaged, each claim costs one
  //    contended atomic RMW; ~512 cells of work per claim keeps that
  //    under a few percent.
  constexpr std::size_t kInlineCells = 1024;
  constexpr std::size_t kMinCellsPerClaim = 512;
  const std::size_t per_tile = tile * tile;
  if (workers == 0) return 1;
  if (per_tile < kInlineCells && n_tiles <= kInlineCells / per_tile) return n_tiles;
  if (per_tile >= kMinCellsPerClaim) return 1;
  const std::size_t want = (kMinCellsPerClaim + per_tile - 1) / per_tile;
  // Never batch so hard that the diagonal stops feeding every worker.
  const std::size_t fair = std::max<std::size_t>(1, n_tiles / (2 * workers));
  return std::min(want, fair);
}

void run_serial_wavefront(const TiledRegion& region, const core::LoweredKernel& kernel,
                          std::byte* storage) {
  region.validate();
  if (region.d_begin == region.d_end) return;
  // One band-clamped dispatch over the whole remaining rectangle: a full
  // sweep (everything in band) is a SINGLE kernel call — row-major order
  // over the rectangle satisfies every wavefront dependency — and a band
  // slice degrades to one call per clamped row inside tile_local().
  const std::size_t i_first =
      std::max(core::diag_row_lo(region.dim, region.d_begin), region.row_begin);
  const std::size_t i_last = region.row_hi();
  if (i_first >= i_last) return;
  kernel.tile(storage, i_first, i_last, 0, region.dim, region.d_begin, region.d_end);
}

double tiled_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                               double tsize_units, std::size_t elem_bytes) {
  region.validate();
  if (region.d_begin == region.d_end) return 0.0;
  const std::size_t dim = region.dim;
  const std::size_t T = region.tile;
  const std::size_t M = (dim + T - 1) / T;
  const double P = cpu.effective_parallelism();
  // Per tile: T^2 elements, one lowered-kernel dispatch, and the
  // scheduler's claim/enqueue overhead.
  const double tile_cost = static_cast<double>(T) * static_cast<double>(T) *
                               cpu.tiled_element_ns(tsize_units, elem_bytes, T) +
                           cpu.kernel_dispatch_ns + cpu.tile_sched_ns;

  double total = 0.0;
  for (std::size_t k = 0; k < 2 * M - 1; ++k) {
    const std::size_t span_lo = k * T;
    const std::size_t span_hi = (k + 2) * T - 2;
    if (span_lo >= region.d_end || span_hi < region.d_begin) continue;
    // Tiles on tile-diagonal k: the cell-diagonal row algebra of an MxM
    // grid (core/diag.hpp), clamped to the region's row window.
    const std::size_t first = std::max(core::diag_row_lo(M, k), region.row_begin / T);
    const std::size_t last = std::min(core::diag_row_hi(M, k), (region.row_hi() - 1) / T);
    if (first > last) continue;
    const std::size_t n_k = last - first + 1;
    const double slots = std::max(1.0, static_cast<double>(n_k) / P);
    total += slots * tile_cost + cpu.barrier_ns;
  }
  return total;
}

double serial_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                                double tsize_units, std::size_t elem_bytes) {
  region.validate();
  return static_cast<double>(region.cell_count()) * cpu.element_ns(tsize_units, elem_bytes);
}

}  // namespace wavetune::cpu
