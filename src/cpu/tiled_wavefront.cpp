#include "cpu/tiled_wavefront.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/diag.hpp"

namespace wavetune::cpu {

std::size_t TiledRegion::cell_count() const {
  // core/diag.hpp is the single source of the diagonal-length algebra.
  return core::cells_in_rect(d_begin, d_end, row_begin, row_hi(), 0, col_hi());
}

void TiledRegion::validate() const {
  if (dim == 0) throw std::invalid_argument("TiledRegion: dim == 0");
  if (tile == 0) throw std::invalid_argument("TiledRegion: tile == 0");
  if (d_begin > d_end) throw std::invalid_argument("TiledRegion: d_begin > d_end");
  if (d_end > 2 * dim - 1) throw std::invalid_argument("TiledRegion: d_end beyond last diagonal");
  if (row_end > dim) throw std::invalid_argument("TiledRegion: row_end beyond the grid");
  if (row_begin >= row_hi()) throw std::invalid_argument("TiledRegion: empty row window");
  if (col_end > dim) throw std::invalid_argument("TiledRegion: col_end beyond the grid");
}

TileWindow::TileWindow(const TiledRegion& region) {
  const std::size_t T = region.tile;
  M = (region.dim + T - 1) / T;
  I_lo = region.row_begin / T;
  I_hi = (region.row_hi() + T - 1) / T;
  J_hi = (region.col_hi() + T - 1) / T;
  if (region.d_begin >= region.d_end) return;  // empty: k_lo > k_hi
  // Tile-diagonal k spans the global diagonals [k*T, (k+2)*T - 2]. Last k
  // with k*T < d_end; first k with (k+2)*T - 2 >= d_begin.
  k_hi = std::min(2 * M - 2, (region.d_end - 1) / T);
  const std::size_t need = region.d_begin + 2;
  k_lo = need <= 2 * T ? 0 : (need - 2 * T + T - 1) / T;
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
  kernel.tile(storage, i_first, i_last, 0, region.col_hi(), region.d_begin, region.d_end);
}

double tiled_wavefront_cost_ns(const TiledRegion& region, const sim::CpuModel& cpu,
                               double tsize_units, std::size_t elem_bytes) {
  region.validate();
  const TileWindow w(region);
  const std::size_t T = region.tile;
  const double P = cpu.effective_parallelism();
  // Per tile: T^2 elements, one lowered-kernel dispatch, and the
  // scheduler's claim/enqueue overhead.
  const double tile_cost = static_cast<double>(T) * static_cast<double>(T) *
                               cpu.tiled_element_ns(tsize_units, elem_bytes, T) +
                           cpu.kernel_dispatch_ns + cpu.tile_sched_ns;

  double total = 0.0;
  for (std::size_t k = w.k_lo; k <= w.k_hi; ++k) {
    const std::size_t first = w.first_row(k);
    const std::size_t last = w.last_row(k);
    if (first > last) continue;
    const double slots = std::max(1.0, static_cast<double>(last - first + 1) / P);
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
