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

/// Cells (i, j) with row i in [row_begin, row_end) and i + j in
/// [d_begin, d_end), in O(1): strip geometry and region sizes count a
/// band's rectangle without walking its rows or diagonals.
constexpr std::size_t cells_in_rows(std::size_t dim, std::size_t d_begin, std::size_t d_end,
                                    std::size_t row_begin, std::size_t row_end) {
  // Cells with i < r and i + j < t: each row i < min(r, t, dim) holds
  // min(dim, t - i) of them, i.e. dim for i <= t - dim, t - i after.
  auto below = [dim](std::size_t r, std::size_t t) {
    const std::size_t m = std::min({r, t, dim});
    const std::size_t full = t >= dim ? std::min(t - dim + 1, m) : 0;
    const std::size_t n = m - full;
    return full * dim + n * t - n * (full + m - 1) / 2;
  };
  if (d_begin >= d_end || row_begin >= row_end) return 0;
  return (below(row_end, d_end) - below(row_end, d_begin)) -
         (below(row_begin, d_end) - below(row_begin, d_begin));
}

/// Total cells over diagonals [d_begin, d_end).
constexpr std::size_t cells_in_diag_range(std::size_t dim, std::size_t d_begin,
                                          std::size_t d_end) {
  return cells_in_rows(dim, d_begin, d_end, 0, dim);
}

}  // namespace wavetune::core
