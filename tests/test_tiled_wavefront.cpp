#include "cpu/tiled_wavefront.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "core/spec.hpp"
#include "cpu/dataflow_wavefront.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::cpu {
namespace {

/// A spec of `elem_bytes` cells carrying only a cell kernel: lower()
/// adapts it through both fallback rungs, the path every cell- and
/// segment-ABI spec takes to the schedulers.
core::LoweredKernel lower_cell_kernel(std::size_t dim, std::size_t elem_bytes,
                                      core::ByteKernel kernel) {
  core::WavefrontSpec spec;
  spec.dim = dim;
  spec.elem_bytes = elem_bytes;
  spec.kernel = std::move(kernel);
  return spec.lower();
}

/// The segment-rung counterpart of lower_cell_kernel.
core::LoweredKernel lower_segment_kernel(std::size_t dim, std::size_t elem_bytes,
                                         core::SegmentKernel segment) {
  core::WavefrontSpec spec;
  spec.dim = dim;
  spec.elem_bytes = elem_bytes;
  spec.segment = std::move(segment);
  return spec.lower();
}

std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v = 0;
  if (p) std::memcpy(&v, p, sizeof v);
  return v;
}

/// Path-counting recurrence over uint32 cells — any dependency violation
/// or missed/duplicated cell changes the result.
struct PathGrid {
  std::size_t dim;
  std::vector<std::uint32_t> v;
  core::LoweredKernel kernel;
  explicit PathGrid(std::size_t d)
      : dim(d),
        v(d * d, 0),
        kernel(lower_cell_kernel(d, sizeof(std::uint32_t),
                                 [](std::size_t i, std::size_t j, const std::byte* w,
                                    const std::byte* n, const std::byte*, std::byte* out) {
                                   const std::uint32_t value =
                                       (i == 0 && j == 0) ? 1 : load_u32(w) + load_u32(n);
                                   std::memcpy(out, &value, sizeof value);
                                 })) {}
  std::byte* data() { return reinterpret_cast<std::byte*>(v.data()); }
};

TEST(TiledRegion, CellCountFullGrid) {
  TiledRegion r{10, 0, 19, 1};
  EXPECT_EQ(r.cell_count(), 100u);
}

TEST(TiledRegion, CellCountBand) {
  TiledRegion r{4, 2, 5, 1};  // diagonals 2,3,4 of a 4x4: 3+4+3
  EXPECT_EQ(r.cell_count(), 10u);
}

TEST(TiledRegion, ValidateRejectsBadShapes) {
  EXPECT_THROW((TiledRegion{0, 0, 0, 1}).validate(), std::invalid_argument);
  EXPECT_THROW((TiledRegion{4, 0, 1, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((TiledRegion{4, 3, 2, 1}).validate(), std::invalid_argument);
  EXPECT_THROW((TiledRegion{4, 0, 8, 1}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((TiledRegion{4, 0, 7, 1}).validate());
}

TEST(TiledWavefront, SerialReferenceMatchesPascal) {
  PathGrid g(6);
  run_serial_wavefront(TiledRegion{6, 0, 11, 1}, g.kernel, g.data());
  EXPECT_EQ(g.v[0], 1u);
  EXPECT_EQ(g.v[1 * 6 + 1], 2u);
  EXPECT_EQ(g.v[2 * 6 + 2], 6u);
  EXPECT_EQ(g.v[5 * 6 + 5], 252u);  // C(10,5)
}

// Property: tiled parallel result equals serial for any (dim, tile).
class TiledEqualsSerial : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(TiledEqualsSerial, FullGrid) {
  const auto [dim, tile] = GetParam();
  PathGrid serial(dim);
  run_serial_wavefront(TiledRegion{dim, 0, 2 * dim - 1, 1}, serial.kernel, serial.data());

  PathGrid tiled(dim);
  ThreadPool pool(4);
  run_wavefront(TiledRegion{dim, 0, 2 * dim - 1, tile}, pool, tiled.kernel,
                tiled.data());
  EXPECT_EQ(serial.v, tiled.v);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndTiles, TiledEqualsSerial,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 16, 33, 64),
                       ::testing::Values<std::size_t>(1, 2, 4, 8, 10, 100)));

// Property: executing phases [0,a), [a,b), [b,D) sequentially equals one
// pass — the executor's three-phase split is seamless at any boundary.
class PhaseSplitSeamless : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PhaseSplitSeamless, TwoCuts) {
  const auto [a_off, b_off] = GetParam();
  const std::size_t dim = 20;
  const std::size_t total = 2 * dim - 1;
  const std::size_t a = std::min(a_off, total);
  const std::size_t b = std::min(a + b_off, total);

  PathGrid one_pass(dim);
  run_serial_wavefront(TiledRegion{dim, 0, total, 1}, one_pass.kernel, one_pass.data());

  PathGrid phased(dim);
  ThreadPool pool(2);
  for (const TiledRegion& r : {TiledRegion{dim, 0, a, 3}, TiledRegion{dim, a, b, 5},
                               TiledRegion{dim, b, total, 2}}) {
    run_wavefront(r, pool, phased.kernel, phased.data());
  }
  EXPECT_EQ(one_pass.v, phased.v);
}

INSTANTIATE_TEST_SUITE_P(Cuts, PhaseSplitSeamless,
                         ::testing::Combine(::testing::Values<std::size_t>(0, 1, 5, 13, 19, 39),
                                            ::testing::Values<std::size_t>(0, 1, 7, 20)));

TEST(TiledWavefront, VisitsEachCellExactlyOnce) {
  const std::size_t dim = 15;
  std::vector<int> hits(dim * dim, 0);
  std::mutex m;
  ThreadPool pool(4);
  const core::LoweredKernel count = lower_cell_kernel(
      dim, 1,
      [&](std::size_t i, std::size_t j, const std::byte*, const std::byte*, const std::byte*,
          std::byte*) {
        std::lock_guard<std::mutex> lock(m);
        ++hits[i * dim + j];
      });
  std::vector<std::byte> storage(dim * dim);
  run_wavefront(TiledRegion{dim, 3, 20, 4}, pool, count, storage.data());
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      const int expected = (i + j >= 3 && i + j < 20) ? 1 : 0;
      EXPECT_EQ(hits[i * dim + j], expected) << i << "," << j;
    }
  }
}

TEST(TiledWavefrontCost, ZeroForEmptyRegion) {
  const auto cpu = sim::make_i7_3820().cpu;
  EXPECT_DOUBLE_EQ(tiled_wavefront_cost_ns(TiledRegion{10, 4, 4, 2}, cpu, 10.0, 16), 0.0);
}

TEST(TiledWavefrontCost, MonotoneInTsize) {
  const auto cpu = sim::make_i7_3820().cpu;
  const TiledRegion r{64, 0, 127, 8};
  EXPECT_LT(tiled_wavefront_cost_ns(r, cpu, 10.0, 16),
            tiled_wavefront_cost_ns(r, cpu, 100.0, 16));
}

TEST(TiledWavefrontCost, TinyTilesPaySchedulingOverhead) {
  const auto cpu = sim::make_i7_3820().cpu;
  // At modest granularity, tile=1 must be worse than tile=8: per-element
  // scheduling dominates (the cpu-tile trade-off of the paper).
  const TiledRegion t1{256, 0, 511, 1};
  const TiledRegion t8{256, 0, 511, 8};
  EXPECT_GT(tiled_wavefront_cost_ns(t1, cpu, 10.0, 16),
            tiled_wavefront_cost_ns(t8, cpu, 10.0, 16));
}

TEST(SerialWavefrontCost, ProportionalToCells) {
  const auto cpu = sim::make_i7_3820().cpu;
  const double full = serial_wavefront_cost_ns(TiledRegion{32, 0, 63, 1}, cpu, 50.0, 16);
  const double half_cells =
      serial_wavefront_cost_ns(TiledRegion{32, 0, 31, 1}, cpu, 50.0, 16) +
      serial_wavefront_cost_ns(TiledRegion{32, 31, 63, 1}, cpu, 50.0, 16);
  EXPECT_NEAR(full, half_cells, 1e-6);
  EXPECT_DOUBLE_EQ(full, 32.0 * 32.0 * cpu.element_ns(50.0, 16));
}

TEST(TiledWavefrontCost, ParallelBeatsSerialAtScale) {
  const auto cpu = sim::make_i7_2600k().cpu;
  const TiledRegion r{512, 0, 1023, 8};
  EXPECT_LT(tiled_wavefront_cost_ns(r, cpu, 100.0, 16),
            serial_wavefront_cost_ns(r, cpu, 100.0, 16));
}

// --- segment-ABI kernels through lower() ---

// A segment-rung spec reaches the schedulers through lower()'s tile
// fallback, one segment call per clamped tile row: exactly the cells of
// the region, as contiguous in-band runs.
TEST(RowSegmentDispatch, SerialCoversRegionExactlyOnce) {
  for (const TiledRegion& region :
       {TiledRegion{16, 0, 31, 1}, TiledRegion{16, 5, 20, 1}, TiledRegion{9, 3, 9, 1}}) {
    std::vector<int> hits(region.dim * region.dim, 0);
    std::size_t calls = 0;
    const core::LoweredKernel kernel = lower_segment_kernel(
        region.dim, 1,
        [&](std::size_t i, std::size_t j0, std::size_t j1, const std::byte*, const std::byte*,
            const std::byte*, std::byte*) {
          ASSERT_LT(j0, j1);
          ++calls;
          for (std::size_t j = j0; j < j1; ++j) hits[i * region.dim + j]++;
        });
    std::vector<std::byte> storage(region.dim * region.dim);
    run_serial_wavefront(region, kernel, storage.data());
    for (std::size_t i = 0; i < region.dim; ++i) {
      for (std::size_t j = 0; j < region.dim; ++j) {
        const std::size_t d = i + j;
        const int want = (d >= region.d_begin && d < region.d_end) ? 1 : 0;
        ASSERT_EQ(hits[i * region.dim + j], want) << "i=" << i << " j=" << j;
      }
    }
    // At most one segment per row.
    EXPECT_LE(calls, region.dim);
  }
}

/// 3w + n + i + j over uint64 cells (1 across the borders), as a segment
/// kernel walking the run with sliding neighbour pointers.
void mix_segment(std::size_t i, std::size_t j0, std::size_t j1, const std::byte* west,
                 const std::byte* north, const std::byte*, std::byte* out) {
  std::uint64_t w = 1;
  if (west) std::memcpy(&w, west, sizeof w);
  for (std::size_t j = j0; j < j1; ++j) {
    std::uint64_t n = 1;
    if (north) std::memcpy(&n, north + (j - j0) * sizeof n, sizeof n);
    w = 3 * w + n + i + j;
    std::memcpy(out + (j - j0) * sizeof w, &w, sizeof w);
  }
}

TEST(RowSegmentDispatch, TiledMatchesSerialValues) {
  ThreadPool pool(4);
  const std::size_t dim = 33;
  const core::LoweredKernel kernel = lower_segment_kernel(dim, sizeof(std::uint64_t), mix_segment);
  for (std::size_t tile : {std::size_t{1}, std::size_t{4}, std::size_t{16}, std::size_t{40}}) {
    for (auto [d0, d1] : {std::pair<std::size_t, std::size_t>{0, 2 * dim - 1},
                          std::pair<std::size_t, std::size_t>{7, 41}}) {
      std::vector<std::uint64_t> ref(dim * dim, 0);
      run_serial_wavefront(TiledRegion{dim, d0, d1, 1}, kernel,
                           reinterpret_cast<std::byte*>(ref.data()));
      std::vector<std::uint64_t> got(dim * dim, 0);
      run_wavefront(TiledRegion{dim, d0, d1, tile}, pool, kernel,
                    reinterpret_cast<std::byte*>(got.data()));
      EXPECT_EQ(ref, got) << "tile=" << tile << " d=[" << d0 << "," << d1 << ")";
    }
  }
}

TEST(RowSegmentDispatch, SegmentsNeverCrossTileOrBandBoundaries) {
  ThreadPool pool(1);  // deterministic single-worker run
  const TiledRegion region{20, 6, 30, 8};
  std::mutex m;
  std::vector<std::array<std::size_t, 3>> segs;
  const core::LoweredKernel kernel = lower_segment_kernel(
      region.dim, 1,
      [&](std::size_t i, std::size_t j0, std::size_t j1, const std::byte*, const std::byte*,
          const std::byte*, std::byte*) {
        std::lock_guard<std::mutex> lock(m);
        segs.push_back({i, j0, j1});
      });
  std::vector<std::byte> storage(region.dim * region.dim);
  run_wavefront(region, pool, kernel, storage.data());
  std::size_t cells = 0;
  for (const auto& [i, j0, j1] : segs) {
    ASSERT_LT(j0, j1);
    // Within one tile column-wise...
    EXPECT_EQ(j0 / region.tile, (j1 - 1) / region.tile);
    // ...and fully inside the diagonal band.
    EXPECT_GE(i + j0, region.d_begin);
    EXPECT_LT(i + (j1 - 1), region.d_end);
    cells += j1 - j0;
  }
  EXPECT_EQ(cells, region.cell_count());
}

}  // namespace
}  // namespace wavetune::cpu
