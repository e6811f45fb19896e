// Diagonal geometry of a dim x dim wavefront grid.
//
// Diagonal d (0-based) contains the cells (i, j) with i + j == d.
// There are 2*dim - 1 diagonals; the main (longest) diagonal is d = dim-1.
// These helpers are the single source of truth for index arithmetic across
// the CPU executor, the GPU partitioner and the cost model.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

namespace wavetune::core {

/// Total number of diagonals of a dim x dim grid.
constexpr std::size_t num_diagonals(std::size_t dim) { return dim == 0 ? 0 : 2 * dim - 1; }

/// Index of the main (longest) diagonal.
constexpr std::size_t main_diagonal(std::size_t dim) { return dim == 0 ? 0 : dim - 1; }

/// Number of cells on diagonal d (0 if d is out of range).
constexpr std::size_t diag_len(std::size_t dim, std::size_t d) {
  if (dim == 0 || d >= num_diagonals(dim)) return 0;
  return std::min({d + 1, dim, 2 * dim - 1 - d});
}

/// Smallest row index i on diagonal d.
constexpr std::size_t diag_row_lo(std::size_t dim, std::size_t d) {
  return d >= dim ? d - dim + 1 : 0;
}

/// Largest row index i on diagonal d (inclusive). Requires d in range.
constexpr std::size_t diag_row_hi(std::size_t dim, std::size_t d) {
  return std::min(d, dim - 1);
}

/// Number of cells on diagonal d with row index in [row_begin, row_end).
constexpr std::size_t diag_rows_in(std::size_t dim, std::size_t d, std::size_t row_begin,
                                   std::size_t row_end) {
  if (diag_len(dim, d) == 0 || row_begin >= row_end) return 0;
  const std::size_t lo = std::max(diag_row_lo(dim, d), row_begin);
  const std::size_t hi_excl = std::min(diag_row_hi(dim, d) + 1, row_end);
  return hi_excl > lo ? hi_excl - lo : 0;
}

/// Column span [first, second) of row i within columns [col_lo, col_hi)
/// clamped to the diagonal band [d_begin, d_end) (i + j in the band).
/// Empty (first >= second) when the row misses the band. The single source
/// of the clamp algebra shared by every batched hot loop (CPU schedulers,
/// the lowered-kernel dispatch in core/lowered.hpp, the GPU partitioner).
constexpr std::pair<std::size_t, std::size_t> row_band_span(std::size_t i, std::size_t d_begin,
                                                            std::size_t d_end,
                                                            std::size_t col_lo,
                                                            std::size_t col_hi) {
  if (d_end <= i) return {0, 0};
  const std::size_t band_lo = d_begin > i ? d_begin - i : 0;
  return {std::max(col_lo, band_lo), std::min(col_hi, d_end - i)};
}

/// Cells (i, j) with row i in [row_begin, row_end), column j in
/// [col_begin, col_end) and i + j in [d_begin, d_end), in O(1): strip
/// geometry, region sizes and multi-GPU transfer counts count a band's
/// rectangle without walking its rows or diagonals.
constexpr std::size_t cells_in_rect(std::size_t d_begin, std::size_t d_end,
                                    std::size_t row_begin, std::size_t row_end,
                                    std::size_t col_begin, std::size_t col_end) {
  if (d_begin >= d_end || row_begin >= row_end || col_begin >= col_end) return 0;
  using ll = long long;
  const ll w = static_cast<ll>(col_end - col_begin);
  // Row i holds clamp(t - i - col_begin, 0, w) cells with i + j < t, so
  // the rows sum clamp(u, 0, w) over a run of consecutive u; prefix(n) is
  // that sum over u in [0, n].
  auto prefix = [w](ll n) -> ll {
    if (n < 0) return 0;
    if (n <= w) return n * (n + 1) / 2;
    return w * (w + 1) / 2 + (n - w) * w;
  };
  auto below = [&](std::size_t t) {  // cells of the rectangle with i + j < t
    const ll x = static_cast<ll>(t) - static_cast<ll>(col_begin);
    return prefix(x - static_cast<ll>(row_begin)) - prefix(x - static_cast<ll>(row_end));
  };
  return static_cast<std::size_t>(below(d_end) - below(d_begin));
}

/// Cells (i, j) of a dim x dim grid with row i in [row_begin, row_end) and
/// i + j in [d_begin, d_end), in O(1).
constexpr std::size_t cells_in_rows(std::size_t dim, std::size_t d_begin, std::size_t d_end,
                                    std::size_t row_begin, std::size_t row_end) {
  return cells_in_rect(d_begin, d_end, std::min(row_begin, dim), std::min(row_end, dim), 0, dim);
}

/// Total cells over diagonals [d_begin, d_end).
constexpr std::size_t cells_in_diag_range(std::size_t dim, std::size_t d_begin,
                                          std::size_t d_end) {
  return cells_in_rows(dim, d_begin, d_end, 0, dim);
}

}  // namespace wavetune::core
