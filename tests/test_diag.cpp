#include "core/diag.hpp"

#include <gtest/gtest.h>

namespace wavetune::core {
namespace {

TEST(Diag, Counts) {
  EXPECT_EQ(num_diagonals(1), 1u);
  EXPECT_EQ(num_diagonals(4), 7u);
  EXPECT_EQ(num_diagonals(0), 0u);
  EXPECT_EQ(main_diagonal(4), 3u);
}

TEST(Diag, LengthsOfSmallGrid) {
  // 4x4 grid: diagonal lengths 1,2,3,4,3,2,1.
  const std::size_t expect[] = {1, 2, 3, 4, 3, 2, 1};
  for (std::size_t d = 0; d < 7; ++d) EXPECT_EQ(diag_len(4, d), expect[d]) << d;
  EXPECT_EQ(diag_len(4, 7), 0u);
  EXPECT_EQ(diag_len(0, 0), 0u);
}

TEST(Diag, RowRanges) {
  EXPECT_EQ(diag_row_lo(4, 0), 0u);
  EXPECT_EQ(diag_row_hi(4, 0), 0u);
  EXPECT_EQ(diag_row_lo(4, 3), 0u);
  EXPECT_EQ(diag_row_hi(4, 3), 3u);
  EXPECT_EQ(diag_row_lo(4, 5), 2u);
  EXPECT_EQ(diag_row_hi(4, 5), 3u);
}

// Property sweep: length equals hi-lo+1 and total cells equal dim^2.
class DiagGeometry : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DiagGeometry, LengthsConsistent) {
  const std::size_t dim = GetParam();
  std::size_t total = 0;
  for (std::size_t d = 0; d < num_diagonals(dim); ++d) {
    const std::size_t len = diag_len(dim, d);
    EXPECT_EQ(len, diag_row_hi(dim, d) - diag_row_lo(dim, d) + 1);
    EXPECT_LE(len, dim);
    total += len;
  }
  EXPECT_EQ(total, dim * dim);
  EXPECT_EQ(cells_in_diag_range(dim, 0, num_diagonals(dim)), dim * dim);
}

TEST_P(DiagGeometry, MainDiagonalIsLongest) {
  const std::size_t dim = GetParam();
  EXPECT_EQ(diag_len(dim, main_diagonal(dim)), dim);
}

INSTANTIATE_TEST_SUITE_P(Dims, DiagGeometry,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13, 100, 501));

TEST(Diag, RowsInWindow) {
  // Diagonal 3 of a 4x4 grid has rows 0..3.
  EXPECT_EQ(diag_rows_in(4, 3, 0, 4), 4u);
  EXPECT_EQ(diag_rows_in(4, 3, 1, 3), 2u);
  EXPECT_EQ(diag_rows_in(4, 3, 2, 2), 0u);
  EXPECT_EQ(diag_rows_in(4, 3, 3, 10), 1u);
  // Diagonal 5 has rows 2..3.
  EXPECT_EQ(diag_rows_in(4, 5, 0, 2), 0u);
  EXPECT_EQ(diag_rows_in(4, 5, 0, 3), 1u);
  EXPECT_EQ(diag_rows_in(4, 5, 2, 4), 2u);
  // Out-of-range diagonal.
  EXPECT_EQ(diag_rows_in(4, 9, 0, 4), 0u);
}

TEST(Diag, RowsInSplitsPartition) {
  // For any split s, rows below and above partition the diagonal.
  const std::size_t dim = 11;
  for (std::size_t d = 0; d < num_diagonals(dim); ++d) {
    for (std::size_t s = 0; s <= dim; ++s) {
      EXPECT_EQ(diag_rows_in(dim, d, 0, s) + diag_rows_in(dim, d, s, dim), diag_len(dim, d))
          << "d=" << d << " s=" << s;
    }
  }
}

// The O(1) rectangle-of-band count equals the per-diagonal walk for every
// band and row window of small grids.
TEST(Diag, CellsInRowsMatchesTheDiagonalWalk) {
  for (std::size_t dim : {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{8}}) {
    const std::size_t total = num_diagonals(dim);
    for (std::size_t d0 = 0; d0 <= total; ++d0) {
      for (std::size_t d1 = d0; d1 <= total; ++d1) {
        for (std::size_t r0 = 0; r0 <= dim; ++r0) {
          for (std::size_t r1 = r0; r1 <= dim; ++r1) {
            std::size_t want = 0;
            for (std::size_t d = d0; d < d1; ++d) want += diag_rows_in(dim, d, r0, r1);
            ASSERT_EQ(cells_in_rows(dim, d0, d1, r0, r1), want)
                << "dim=" << dim << " d=[" << d0 << "," << d1 << ") rows=[" << r0 << "," << r1
                << ")";
          }
        }
      }
    }
  }
}

TEST(Diag, CellsInRangePartial) {
  EXPECT_EQ(cells_in_diag_range(4, 0, 0), 0u);
  EXPECT_EQ(cells_in_diag_range(4, 2, 5), 3u + 4u + 3u);
}

}  // namespace
}  // namespace wavetune::core
