#include "cpu/dataflow_wavefront.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/spec.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::cpu {
namespace {

/// Deterministic integer recurrence 3w + n + i + j over uint64 cells (1
/// across the borders) whose value at every cell depends on the exact
/// values of its west/north neighbours: any dependency violation, missed
/// or duplicated cell changes the result, so equality with the serial
/// reference is a bit-identical equivalence proof. This is the native
/// tile kernel (pointer contract of core/lowered.hpp).
void mix_tile(const void*, std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
              std::size_t stride, const std::byte* west, const std::byte* north,
              const std::byte*, std::byte* out) {
  constexpr std::size_t kElem = sizeof(std::uint64_t);
  for (std::size_t i = i0; i < i1; ++i) {
    const std::size_t r = i - i0;
    auto* row = reinterpret_cast<std::uint64_t*>(out + r * stride);
    const auto* up = r > 0 ? reinterpret_cast<const std::uint64_t*>(out + (r - 1) * stride)
                           : reinterpret_cast<const std::uint64_t*>(north);
    for (std::size_t j = j0; j < j1; ++j) {
      std::uint64_t w = 1;
      if (j > j0) {
        w = row[j - j0 - 1];
      } else if (west) {
        std::memcpy(&w, west + r * stride, kElem);
      }
      const std::uint64_t n = up ? up[j - j0] : 1;
      row[j - j0] = 3 * w + n + i + j;
    }
  }
}

core::LoweredKernel mix_lowered(std::size_t dim) {
  core::LoweredKernel k;
  k.fn = mix_tile;
  k.dim = dim;
  k.elem_bytes = sizeof(std::uint64_t);
  k.native = true;
  return k;
}

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

/// The same recurrence as mix_tile on the cell rung.
core::LoweredKernel mix_cell_lowered(std::size_t dim) {
  return lower_cell_kernel(dim, sizeof(std::uint64_t),
                           [](std::size_t i, std::size_t j, const std::byte* west,
                              const std::byte* north, const std::byte*, std::byte* out) {
                             std::uint64_t w = 1, n = 1;
                             if (west) std::memcpy(&w, west, sizeof w);
                             if (north) std::memcpy(&n, north, sizeof n);
                             const std::uint64_t v = 3 * w + n + i + j;
                             std::memcpy(out, &v, sizeof v);
                           });
}

using Cells = std::vector<std::uint64_t>;

std::byte* bytes(Cells& v) { return reinterpret_cast<std::byte*>(v.data()); }

Cells serial_reference(const TiledRegion& region) {
  Cells ref(region.dim * region.dim, 0);
  TiledRegion serial = region;
  serial.tile = 1;
  run_serial_wavefront(serial, mix_lowered(region.dim), bytes(ref));
  return ref;
}

/// One dataflow sweep of `region` with the native mix kernel.
void run_mix(const TiledRegion& region, ThreadPool& pool, Cells& v) {
  run_wavefront(region, pool, mix_lowered(region.dim), bytes(v));
}

// Property: dataflow result is bit-identical to the serial reference for
// any (dim, tile), including non-divisible dims and T=1, for the native
// tile kernel and for a cell kernel lowered through the fallback rungs.
class DataflowEqualsSerial
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DataflowEqualsSerial, FullGrid) {
  const auto [dim, tile] = GetParam();
  const TiledRegion region{dim, 0, 2 * dim - 1, tile};
  const Cells ref = serial_reference(region);

  ThreadPool pool(4);
  for (const core::LoweredKernel& kernel : {mix_lowered(dim), mix_cell_lowered(dim)}) {
    Cells got(dim * dim, 0);
    run_wavefront(region, pool, kernel, bytes(got));
    EXPECT_EQ(ref, got) << (kernel.native ? "tile rung" : "cell rung");
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndTiles, DataflowEqualsSerial,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 16, 33, 64, 129),
                       ::testing::Values<std::size_t>(1, 2, 4, 8, 10, 100)));

// Property: band slices (the executor's phase-1/phase-3 regions) are
// bit-identical to the serial reference at every cut, including slices
// that start deep in the grid.
TEST(DataflowWavefront, BandSlicesMatchSerial) {
  ThreadPool pool(4);
  const std::size_t dim = 33;
  for (std::size_t tile : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    for (auto [d0, d1] : {std::pair<std::size_t, std::size_t>{0, 2 * dim - 1},
                          std::pair<std::size_t, std::size_t>{7, 41},
                          std::pair<std::size_t, std::size_t>{40, 65},
                          std::pair<std::size_t, std::size_t>{60, 65},
                          std::pair<std::size_t, std::size_t>{12, 12}}) {
      const TiledRegion region{dim, d0, d1, tile};
      const Cells ref = serial_reference(region);
      Cells got(dim * dim, 0);
      run_mix(region, pool, got);
      EXPECT_EQ(ref, got) << "tile=" << tile << " d=[" << d0 << "," << d1 << ")";
    }
  }
}

// Property: three phases [0,a) [a,b) [b,D) run back-to-back under
// dataflow equal one serial pass — the executor's split is seamless.
TEST(DataflowWavefront, PhaseSplitSeamless) {
  ThreadPool pool(4);
  const std::size_t dim = 20;
  const std::size_t total = 2 * dim - 1;
  for (std::size_t a : {std::size_t{0}, std::size_t{5}, std::size_t{19}, std::size_t{39}}) {
    for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{20}}) {
      const std::size_t b = std::min(a + len, total);
      const Cells ref = serial_reference(TiledRegion{dim, 0, total, 1});

      Cells got(dim * dim, 0);
      run_mix(TiledRegion{dim, 0, a, 3}, pool, got);
      run_mix(TiledRegion{dim, a, b, 5}, pool, got);
      run_mix(TiledRegion{dim, b, total, 2}, pool, got);
      EXPECT_EQ(ref, got) << "a=" << a << " b=" << b;
    }
  }
}

TEST(DataflowWavefront, VisitsEachCellExactlyOnce) {
  const std::size_t dim = 15;
  std::vector<std::atomic<int>> hits(dim * dim);
  ThreadPool pool(4);
  const core::LoweredKernel count = lower_cell_kernel(
      dim, 1,
      [&](std::size_t i, std::size_t j, const std::byte*, const std::byte*, const std::byte*,
          std::byte*) { hits[i * dim + j].fetch_add(1); });
  std::vector<std::byte> storage(dim * dim);
  run_wavefront(TiledRegion{dim, 3, 20, 4}, pool, count, storage.data());
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      const int expected = (i + j >= 3 && i + j < 20) ? 1 : 0;
      EXPECT_EQ(hits[i * dim + j].load(), expected) << i << "," << j;
    }
  }
}

// Many-thread stress: more workers than cores, many small tiles, repeated
// runs — exercises stealing, inline continuation, and the latch under
// contention. Any lost or double-executed tile breaks equality.
TEST(DataflowWavefront, ManyThreadStressBitIdentical) {
  const std::size_t dim = 257;  // non-divisible by the tile
  const TiledRegion region{dim, 0, 2 * dim - 1, 8};
  const Cells ref = serial_reference(region);
  ThreadPool pool(8);
  for (int rep = 0; rep < 5; ++rep) {
    Cells got(dim * dim, 0);
    run_mix(region, pool, got);
    ASSERT_EQ(ref, got) << "rep=" << rep;
  }
}

// Exceptions from tiles — including tiles pushed to a deque and stolen by
// other workers — propagate to the scheduler's caller, and the pool stays
// usable afterwards.
TEST(DataflowWavefront, ExceptionFromStolenTilePropagates) {
  ThreadPool pool(4);
  const std::size_t dim = 64;
  const TiledRegion region{dim, 0, 2 * dim - 1, 4};
  std::atomic<int> calls{0};
  const core::LoweredKernel throwing = lower_cell_kernel(
      dim, 1,
      [&](std::size_t i, std::size_t, const std::byte*, const std::byte*, const std::byte*,
          std::byte*) {
        calls.fetch_add(1);
        if (i >= dim / 2) throw std::runtime_error("boom");
      });
  std::vector<std::byte> storage(dim * dim);
  EXPECT_THROW(run_wavefront(region, pool, throwing, storage.data()),
               std::runtime_error);
  EXPECT_GT(calls.load(), 0);
  // Pool reusable: a clean run still matches the reference.
  const Cells ref = serial_reference(region);
  Cells got(dim * dim, 0);
  run_mix(region, pool, got);
  EXPECT_EQ(ref, got);
}

TEST(DataflowWavefront, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  const std::size_t dim = 31;
  const TiledRegion region{dim, 0, 2 * dim - 1, 4};
  const Cells ref = serial_reference(region);
  Cells got(dim * dim, 0);
  run_mix(region, pool, got);
  EXPECT_EQ(ref, got);
}

// The strip-local entry: a row-window buffer holding only grid rows
// [base_row, r1) must reproduce the full-grid run's rows [r0, r1), for
// full and banded regions, with one worker (inline sweep) and four. Each
// buffer is an exactly-sized heap block, so under ASan any read before
// `base` — the north row of the window's first row lies at base, never
// before it — is a reported heap-buffer-overflow.
TEST(DataflowWavefront, RowWindowBufferMatchesFullGridRows) {
  constexpr std::uint64_t kPoison = 0xDEADBEEFDEADBEEFull;
  const std::size_t dim = 37;
  const std::size_t total = 2 * dim - 1;
  const core::LoweredKernel kernel = mix_lowered(dim);
  const Cells ref = serial_reference(TiledRegion{dim, 0, total, 1});
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    for (const std::size_t tile : {std::size_t{4}, std::size_t{16}}) {
      for (const auto& [r0, r1] : {std::pair<std::size_t, std::size_t>{0, 12},
                                  std::pair<std::size_t, std::size_t>{10, 23},
                                  std::pair<std::size_t, std::size_t>{30, 37}}) {
        for (const auto& [d0, d1] : {std::pair<std::size_t, std::size_t>{0, total},
                                    std::pair<std::size_t, std::size_t>{15, 50}}) {
          const std::size_t base_row = r0 == 0 ? 0 : r0 - 1;
          // Stage what the band needs: the halo row and every cell of the
          // window outside the band; the band cells start as poison.
          Cells buf((r1 - base_row) * dim, kPoison);
          for (std::size_t i = base_row; i < r1; ++i) {
            for (std::size_t j = 0; j < dim; ++j) {
              const bool in_band = i >= r0 && i + j >= d0 && i + j < d1;
              if (!in_band) buf[(i - base_row) * dim + j] = ref[i * dim + j];
            }
          }
          run_wavefront(TiledRegion{dim, d0, d1, tile, r0, r1}, pool, kernel, bytes(buf),
                        base_row);
          for (std::size_t i = base_row; i < r1; ++i) {
            for (std::size_t j = 0; j < dim; ++j) {
              ASSERT_EQ(buf[(i - base_row) * dim + j], ref[i * dim + j])
                  << "workers=" << workers << " tile=" << tile << " rows=[" << r0 << "," << r1
                  << ") d=[" << d0 << "," << d1 << ") cell " << i << "," << j;
            }
          }
        }
      }
    }
  }
}

TEST(DataflowWavefront, RowWindowMustStartBelowTheBufferBase) {
  ThreadPool pool(2);
  const std::size_t dim = 16;
  const core::LoweredKernel kernel = mix_lowered(dim);
  Cells buf(dim * dim, 0);
  // Window starting AT the base row: its north row would lie before base.
  EXPECT_THROW(run_wavefront(TiledRegion{dim, 0, 2 * dim - 1, 4, 5, 9}, pool, kernel,
                             bytes(buf), 5),
               std::invalid_argument);
  EXPECT_THROW(run_wavefront(TiledRegion{dim, 0, 2 * dim - 1, 4, 5, 9}, pool, kernel,
                             bytes(buf), 7),
               std::invalid_argument);
}

TEST(DataflowWavefront, SchedulerNames) {
  EXPECT_STREQ(scheduler_name(Scheduler::kBarrier), "barrier");
  EXPECT_STREQ(scheduler_name(Scheduler::kDataflow), "dataflow");
}

// --- column-capped regions (multi-GPU halo epochs) ------------------------

/// The cells of `r`, counted one by one.
std::size_t brute_cell_count(const TiledRegion& r) {
  std::size_t n = 0;
  for (std::size_t i = r.row_begin; i < r.row_hi(); ++i) {
    for (std::size_t j = 0; j < r.col_hi(); ++j) n += i + j >= r.d_begin && i + j < r.d_end;
  }
  return n;
}

/// A random region of a dim x dim grid: band, row window and column cap.
TiledRegion random_capped_region(std::size_t dim, std::size_t tile, std::uint64_t& state) {
  auto next = [&state](std::size_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::size_t>((state >> 33) % bound);
  };
  const std::size_t total = 2 * dim - 1;
  TiledRegion r{dim, next(total + 1), 0, tile};
  r.d_end = r.d_begin + next(total - r.d_begin + 1);
  r.row_begin = next(dim);
  r.row_end = r.row_begin + 1 + next(dim - r.row_begin);
  r.col_end = next(dim + 1);  // 0 = no cap
  return r;
}

// Property: a region clipped to a row window and a column cap computes
// exactly its own cells, each exactly once, with the values of a
// full-grid serial sweep — through run_wavefront at 1, 2 and 4 workers
// and through run_serial_wavefront. Cells outside the region hold the
// reference values before the sweep and must be left untouched; the
// region's own cells start as poison. cell_count() agrees with a
// cell-by-cell count.
TEST(DataflowWavefront, ColumnCappedRegionsMatchSerial) {
  constexpr std::uint64_t kPoison = 0xDEADBEEFDEADBEEFull;
  const std::size_t dim = 41;
  const Cells ref = serial_reference(TiledRegion{dim, 0, 2 * dim - 1, 1});
  const core::LoweredKernel kernel = mix_lowered(dim);
  std::uint64_t state = 0x5EEDu;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(workers);
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t tile = 1 + static_cast<std::size_t>(trial) % 16;
      const TiledRegion r = random_capped_region(dim, tile, state);
      const std::string what = "workers=" + std::to_string(workers) + " tile=" +
                               std::to_string(tile) + " d=[" + std::to_string(r.d_begin) + "," +
                               std::to_string(r.d_end) + ") rows=[" +
                               std::to_string(r.row_begin) + "," + std::to_string(r.row_hi()) +
                               ") cols<" + std::to_string(r.col_hi());
      ASSERT_EQ(r.cell_count(), brute_cell_count(r)) << what;
      Cells staged = ref;
      for (std::size_t i = r.row_begin; i < r.row_hi(); ++i) {
        for (std::size_t j = 0; j < r.col_hi(); ++j) {
          if (i + j >= r.d_begin && i + j < r.d_end) staged[i * dim + j] = kPoison;
        }
      }
      Cells dataflow = staged;
      run_wavefront(r, pool, kernel, bytes(dataflow));
      ASSERT_EQ(dataflow, ref) << what;
      Cells serial = staged;
      run_serial_wavefront(r, kernel, bytes(serial));
      ASSERT_EQ(serial, ref) << what;
    }
  }
}

TEST(DataflowWavefront, ColumnCappedRegionVisitsEachCellExactlyOnce) {
  const std::size_t dim = 40;
  std::vector<std::atomic<int>> hits(dim * dim);
  ThreadPool pool(4);
  const core::LoweredKernel count = lower_cell_kernel(
      dim, 1,
      [&](std::size_t i, std::size_t j, const std::byte*, const std::byte*, const std::byte*,
          std::byte*) { hits[i * dim + j].fetch_add(1); });
  std::vector<std::byte> storage(dim * dim);
  const TiledRegion r{dim, 30, 60, 4, 12, 35, 21};
  run_wavefront(r, pool, count, storage.data());
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      const bool in = i + j >= 30 && i + j < 60 && i >= 12 && i < 35 && j < 21;
      EXPECT_EQ(hits[i * dim + j].load(), in ? 1 : 0) << i << "," << j;
    }
  }
}

TEST(DataflowWavefront, ColumnCapBeyondTheGridIsRejected) {
  ThreadPool pool(2);
  const std::size_t dim = 16;
  Cells buf(dim * dim, 0);
  EXPECT_THROW(run_wavefront(TiledRegion{dim, 0, 2 * dim - 1, 4, 0, 0, dim + 1}, pool,
                             mix_lowered(dim), bytes(buf)),
               std::invalid_argument);
}

// --- cost model ----------------------------------------------------------

TEST(DataflowWavefrontCost, ZeroForEmptyRegion) {
  const auto cpu = sim::make_i7_3820().cpu;
  EXPECT_DOUBLE_EQ(dataflow_wavefront_cost_ns(TiledRegion{10, 4, 4, 2}, cpu, 10.0, 16), 0.0);
}

// The cost models price what a capped region visits: a cap at dim is no
// cap, and a tighter cap never costs more.
TEST(DataflowWavefrontCost, ColumnCapIsPricedNotIgnored) {
  const auto cpu = sim::make_i7_2600k().cpu;
  const TiledRegion whole{256, 100, 300, 8, 40, 200};
  TiledRegion at_dim = whole;
  at_dim.col_end = 256;
  TiledRegion capped = whole;
  capped.col_end = 64;
  for (const Scheduler s : {Scheduler::kBarrier, Scheduler::kDataflow}) {
    EXPECT_EQ(wavefront_cost_ns(s, at_dim, cpu, 50.0, 16), wavefront_cost_ns(s, whole, cpu, 50.0, 16))
        << scheduler_name(s);
    EXPECT_LT(wavefront_cost_ns(s, capped, cpu, 50.0, 16), wavefront_cost_ns(s, whole, cpu, 50.0, 16))
        << scheduler_name(s);
  }
  EXPECT_LT(serial_wavefront_cost_ns(capped, cpu, 50.0, 16),
            serial_wavefront_cost_ns(whole, cpu, 50.0, 16));
}

TEST(DataflowWavefrontCost, MonotoneInTsize) {
  const auto cpu = sim::make_i7_3820().cpu;
  const TiledRegion r{64, 0, 127, 8};
  EXPECT_LT(dataflow_wavefront_cost_ns(r, cpu, 10.0, 16),
            dataflow_wavefront_cost_ns(r, cpu, 100.0, 16));
}

TEST(DataflowWavefrontCost, NeverWorseThanBarrieredModel) {
  // No barrier term and no per-diagonal slot rounding: for every profile
  // and shape, the dataflow model is at most the barriered model.
  for (const auto& profile : sim::paper_systems()) {
    for (const TiledRegion& r :
         {TiledRegion{512, 0, 1023, 8}, TiledRegion{2048, 0, 4095, 16},
          TiledRegion{256, 100, 300, 4}, TiledRegion{64, 0, 127, 64}}) {
      EXPECT_LE(dataflow_wavefront_cost_ns(r, profile.cpu, 50.0, 16),
                tiled_wavefront_cost_ns(r, profile.cpu, 50.0, 16))
          << profile.name << " dim=" << r.dim << " tile=" << r.tile;
    }
  }
}

TEST(DataflowWavefrontCost, SavesAtLeastTheEliminatedBarriers) {
  // dim 2048 / tile 16 is deep in the work-bound regime (the critical
  // path is far shorter than total work / P), where the barriered model
  // pays 2M-1 = 255 barrier_ns the dataflow model simply doesn't have:
  // the modelled gain is floored by the eliminated barriers.
  const auto cpu = sim::make_i7_2600k().cpu;
  const TiledRegion r{2048, 0, 4095, 16};
  const double n_diags = 255.0;  // 2*(2048/16) - 1
  const double gain = tiled_wavefront_cost_ns(r, cpu, 10.0, 16) -
                      dataflow_wavefront_cost_ns(r, cpu, 10.0, 16);
  EXPECT_GE(gain, n_diags * cpu.barrier_ns);
}

}  // namespace
}  // namespace wavetune::cpu
