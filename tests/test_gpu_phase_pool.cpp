// GPU phases run their functional work on the executor's thread pool:
// one dataflow sweep per single-GPU phase or strip, one sweep per device
// per halo epoch for the multi-GPU split. None of that may depend on the
// pool size:
//
//   * every GPU-phase program shape gives a grid bit-identical to
//     run_serial at 1, 2 and 4 pool workers — including multi-GPU splits
//     at dims whose halo epochs are large enough to spread over the pool;
//   * every simulated RunResult / PhaseTiming field equals estimate()'s
//     (launch counts, swaps, strips, serialized_ns, ...) — the charges are
//     made by the launch loops, never by the functional sweep;
//   * a streamed run resumed mid-phase from a strip checkpoint on a 4-worker
//     pool reproduces the uninterrupted grid and timing;
//   * device buffers are pooled per executor: alternating program shapes
//     on one executor stay bit-identical, a run's device residency peaks
//     at exactly its largest phase's need, and no buffer stays live after
//     a run — whether it ends normally or by an exception;
//   * two queue workers running GPU plans concurrently share the pool and
//     the idle buffers without a race (the suite runs under TSan in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "apps/synthetic.hpp"
#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/phase_program.hpp"
#include "core/streaming.hpp"
#include "fault/injector.hpp"
#include "ocl/buffer.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::core {
namespace {

constexpr std::size_t kDim = 150;
constexpr std::size_t kStripRows = 23;  // does not divide kDim

WavefrontSpec spec(std::size_t dim = kDim) {
  apps::SyntheticParams p;
  p.dim = dim;
  p.tsize = 40.0;
  p.dsize = 2;
  p.functional_iters = 3;
  return apps::make_synthetic_spec(p);
}

struct ProgramCase {
  std::string name;
  PhaseProgram program;
};

std::vector<ProgramCase> gpu_programs(const InputParams& in) {
  const long long band = static_cast<long long>(in.dim) / 2;
  const long long max_halo = TunableParams::max_halo(in.dim, band);
  const TunableParams tiled{4, band, -1, 8};
  std::vector<ProgramCase> out;
  out.push_back({"single-untiled", plan_phases(in, TunableParams{4, band, -1, 1})});
  out.push_back({"single-tile8", plan_phases(in, tiled)});
  out.push_back({"single-full-grid", plan_phases(in, TunableParams{4, 2 * band, -1, 1})});
  for (const std::size_t buffers : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    out.push_back({"streamed-tile8-b" + std::to_string(buffers),
                   apply_strips(plan_phases(in, tiled), kStripRows, buffers)});
  }
  out.push_back({"streamed-untiled-b2",
                 apply_strips(plan_phases(in, TunableParams{4, band, -1, 1}), kStripRows, 2)});
  for (const long long halo : {0LL, max_halo / 2, max_halo}) {
    out.push_back({"dual-h" + std::to_string(halo),
                   plan_phases(in, TunableParams{4, band, halo, 1})});
  }
  TunableParams three{4, band, TunableParams::max_halo_multi(in.dim, band, 3) / 2, 1};
  three.gpus = 3;
  out.push_back({"three-gpu", plan_phases(in, three)});
  return out;
}

bool grids_equal(const Grid& a, const Grid& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// Every simulated field of `run` equals `est`'s; wall time is the only
/// field allowed to differ (0 on estimates).
void expect_same_simulation(const RunResult& run, const RunResult& est, const std::string& what) {
  EXPECT_EQ(run.rtime_ns, est.rtime_ns) << what;
  EXPECT_EQ(run.params, est.params) << what;
  ASSERT_EQ(run.breakdown.phases.size(), est.breakdown.phases.size()) << what;
  for (std::size_t p = 0; p < run.breakdown.phases.size(); ++p) {
    const PhaseTiming& a = run.breakdown.phases[p];
    const PhaseTiming& b = est.breakdown.phases[p];
    const std::string at = what + " phase " + std::to_string(p);
    EXPECT_EQ(a.device, b.device) << at;
    EXPECT_EQ(a.d_begin, b.d_begin) << at;
    EXPECT_EQ(a.d_end, b.d_end) << at;
    EXPECT_EQ(a.ns, b.ns) << at;
    EXPECT_EQ(a.transfer_in_ns, b.transfer_in_ns) << at;
    EXPECT_EQ(a.transfer_out_ns, b.transfer_out_ns) << at;
    EXPECT_EQ(a.swap_ns, b.swap_ns) << at;
    EXPECT_EQ(a.kernel_launches, b.kernel_launches) << at;
    EXPECT_EQ(a.swap_count, b.swap_count) << at;
    EXPECT_EQ(a.redundant_cells, b.redundant_cells) << at;
    EXPECT_EQ(a.strips, b.strips) << at;
    EXPECT_EQ(a.serialized_ns, b.serialized_ns) << at;
    EXPECT_EQ(a.kernel_busy_ns, b.kernel_busy_ns) << at;
    EXPECT_EQ(b.wall_ns, 0.0) << at;
  }
}

class GpuPhasePoolSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GpuPhasePoolSize, GridAndSimulationIndependentOfPoolSize) {
  const std::size_t workers = GetParam();
  const WavefrontSpec s = spec();
  const InputParams in = s.inputs();
  HybridExecutor ex(sim::make_i7_2600k(), workers);  // four simulated GPUs
  Grid ref(kDim, s.elem_bytes);
  ex.run_serial(s, ref);

  for (const ProgramCase& c : gpu_programs(in)) {
    ASSERT_GT(c.program.gpu_phase_count(), 0u) << c.name;
    const std::string what = c.name + " @ " + std::to_string(workers) + " workers";
    Grid g(kDim, s.elem_bytes);
    g.fill_poison();  // stale reads must surface as wrong values
    const RunResult r = ex.run(s, c.program, g);
    EXPECT_TRUE(grids_equal(ref, g)) << what;
    expect_same_simulation(r, ex.estimate(in, c.program), what);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, GpuPhasePoolSize,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{4}));

/// Whole-grid multi-GPU splits at a dim where halo epochs outgrow the
/// inline cutoff: 2, 3 and 4 devices, halo 0 (one epoch per diagonal), 1,
/// 7 and the maximum (few, large epochs).
std::vector<ProgramCase> multi_gpu_programs(const InputParams& in) {
  const long long band = static_cast<long long>(in.dim) - 1;
  std::vector<ProgramCase> out;
  for (const int gpus : {2, 3, 4}) {
    const long long max_halo = TunableParams::max_halo_multi(in.dim, band, gpus);
    for (const long long halo : {0LL, 1LL, 7LL, max_halo}) {
      TunableParams p{4, band, std::min(halo, max_halo), 1};
      p.gpus = gpus;
      out.push_back({"gpus" + std::to_string(gpus) + "-h" + std::to_string(p.halo),
                     plan_phases(in, p)});
    }
  }
  return out;
}

TEST_P(GpuPhasePoolSize, MultiGpuEpochsMatchSerialAtDim256) {
  const std::size_t workers = GetParam();
  const WavefrontSpec s = spec(256);
  const InputParams in = s.inputs();
  HybridExecutor ex(sim::make_i7_2600k(), workers);
  Grid ref(s.dim, s.elem_bytes);
  ex.run_serial(s, ref);

  // A countdown no run reaches only counts the spawn site's visits: tiles
  // spawned inside these one-phase multi-GPU programs show that the large
  // epochs really spread over the pool.
  fault::InjectionPlan count_spawns;
  count_spawns.at(fault::Site::kDataflowSpawn).countdown = ~std::uint64_t{0};
  fault::ScopedInjection arm(count_spawns);
  for (const ProgramCase& c : multi_gpu_programs(in)) {
    ASSERT_EQ(c.program.phases.size(), 1u) << c.name;
    ASSERT_GE(c.program.max_gpu_count(), 2) << c.name;
    const std::string what = c.name + " @ " + std::to_string(workers) + " workers";
    Grid g(s.dim, s.elem_bytes);
    g.fill_poison();
    const RunResult r = ex.run(s, c.program, g);
    EXPECT_TRUE(grids_equal(ref, g)) << what;
    expect_same_simulation(r, ex.estimate(in, c.program), what);
  }
  if (workers > 1) {
    EXPECT_GT(fault::Injector::instance().visits(fault::Site::kDataflowSpawn), 0u);
  }
}

/// Bytes of device memory `program`'s largest GPU phase holds.
std::size_t device_need(const PhaseProgram& program, std::size_t elem_bytes) {
  const std::size_t dim = program.dim;
  std::size_t need = 0;
  for (const PhaseDesc& ph : program.phases) {
    if (ph.is_cpu()) continue;
    std::size_t bytes = static_cast<std::size_t>(ph.gpu_count) * dim * dim * elem_bytes;
    if (ph.gpu_count < 2) {
      const std::size_t rows = std::min(ph.strip_height(dim) + 1, dim);
      const std::size_t buffers =
          ph.streamed() ? std::min(ph.strip_buffers, ph.strip_count(dim)) : 1;
      bytes = buffers * rows * dim * elem_bytes;
    }
    need = std::max(need, bytes);
  }
  return need;
}

TEST(GpuPhasePool, PooledBuffersStayBitIdenticalAndHoldNoLiveBytesAfterARun) {
  const WavefrontSpec s = spec();
  const InputParams in = s.inputs();
  const long long band = static_cast<long long>(kDim) / 2;
  const long long full = static_cast<long long>(kDim) - 1;
  const std::vector<ProgramCase> rotation = {
      {"dual", plan_phases(in, TunableParams{4, band, TunableParams::max_halo(kDim, band), 1})},
      {"whole-grid", plan_phases(in, TunableParams{4, full, -1, 8})},
      {"streamed", apply_strips(plan_phases(in, TunableParams{4, full, -1, 8}), kStripRows, 2)},
      {"split-band", split_gpu_band(plan_phases(in, TunableParams{4, band, -1, 1}), 3)},
  };
  HybridExecutor ex(sim::make_i7_2600k(), 2);
  Grid ref(kDim, s.elem_bytes);
  ex.run_serial(s, ref);
  ASSERT_EQ(ocl::Buffer::live_bytes(), 0u);

  for (int round = 0; round < 3; ++round) {
    for (const ProgramCase& c : rotation) {
      const std::string what = c.name + " round " + std::to_string(round);
      Grid g(kDim, s.elem_bytes);
      g.fill_poison();
      ocl::Buffer::reset_peak();
      ex.run(s, c.program, g);
      EXPECT_TRUE(grids_equal(ref, g)) << what;
      EXPECT_EQ(ocl::Buffer::live_bytes(), 0u) << what;
      EXPECT_EQ(ocl::Buffer::peak_bytes(), device_need(c.program, s.elem_bytes)) << what;
    }
  }

  // A run that fails inside a GPU phase gives its buffers back too, and the
  // executor's next run is still exact.
  {
    fault::InjectionPlan plan;
    plan.at(fault::Site::kGpuTransfer).countdown = 2;
    fault::ScopedInjection arm(plan);
    Grid g(kDim, s.elem_bytes);
    EXPECT_THROW(ex.run(s, rotation[0].program, g), fault::InjectedError);
  }
  EXPECT_EQ(ocl::Buffer::live_bytes(), 0u);
  Grid g(kDim, s.elem_bytes);
  g.fill_poison();
  ex.run(s, rotation[0].program, g);
  EXPECT_TRUE(grids_equal(ref, g));
  EXPECT_EQ(ocl::Buffer::live_bytes(), 0u);
}

// Two queue workers run GPU plans at once on one executor: they share the
// thread pool and the idle device buffers. Every grid must match the
// serial reference (TSan checks the sharing in CI).
TEST(GpuPhasePool, TwoQueueWorkersRunGpuPlansConcurrently) {
  const WavefrontSpec s = spec();
  api::EngineOptions options;
  options.pool_workers = 2;
  options.queue_workers = 2;
  options.profiling = false;
  api::Engine engine(sim::make_i7_2600k(), options);
  Grid ref(kDim, s.elem_bytes);
  {
    HybridExecutor ex(sim::make_i7_2600k(), 1);
    ex.run_serial(s, ref);
  }
  const long long band = static_cast<long long>(kDim) / 2;
  const long long full = static_cast<long long>(kDim) - 1;
  api::CompileOptions dual;
  dual.params = TunableParams{4, band, TunableParams::max_halo(kDim, band), 1};
  api::CompileOptions single;
  single.params = TunableParams{4, full, -1, 8};
  api::CompileOptions streamed = single;
  streamed.max_resident_bytes = whole_grid_resident_bytes(kDim, s.elem_bytes) / 4;
  const std::vector<api::Plan> plans = {engine.compile(s, dual), engine.compile(s, single),
                                        engine.compile(s, streamed)};
  ASSERT_EQ(plans[0].program().max_gpu_count(), 2);
  ASSERT_TRUE(plans[2].program().phases[0].streamed()) << plans[2].program().describe();

  constexpr std::size_t kJobs = 24;
  std::deque<Grid> grids;
  std::vector<std::future<RunResult>> futures;
  for (std::size_t j = 0; j < kJobs; ++j) {
    Grid& g = grids.emplace_back(kDim, s.elem_bytes);
    g.fill_poison();
    futures.push_back(engine.submit(plans[j % plans.size()], g));
  }
  for (std::size_t j = 0; j < kJobs; ++j) {
    futures[j].get();
    EXPECT_TRUE(grids_equal(ref, grids[j])) << "job " << j << " plan " << j % plans.size();
  }
  engine.shutdown();
  EXPECT_EQ(ocl::Buffer::live_bytes(), 0u);
}

TEST(GpuPhasePool, MidStripResumeOnAFourWorkerPoolReproducesTheRun) {
  const WavefrontSpec s = spec();
  const InputParams in = s.inputs();
  HybridExecutor ex(sim::make_i7_2600k(), 4);
  const PhaseProgram streamed = apply_strips(
      plan_phases(in, TunableParams{4, static_cast<long long>(kDim) / 2, -1, 8}), kStripRows, 2);

  std::vector<RunCheckpoint> checkpoints;
  StreamControl record;
  record.on_checkpoint = [&](const RunCheckpoint& cp) { checkpoints.push_back(cp); };
  Grid full(kDim, s.elem_bytes);
  const RunResult full_r = ex.run(s, streamed, full, nullptr, nullptr, nullptr, &record);
  Grid ref(kDim, s.elem_bytes);
  ex.run_serial(s, ref);
  ASSERT_TRUE(grids_equal(ref, full));

  // Pick a checkpoint strictly inside the GPU phase's strip walk.
  std::size_t gpu_phase = streamed.phases.size();
  for (std::size_t p = 0; p < streamed.phases.size(); ++p) {
    if (streamed.phases[p].is_gpu()) gpu_phase = p;
  }
  const RunCheckpoint* mid = nullptr;
  std::size_t in_phase = 0;
  for (const RunCheckpoint& cp : checkpoints) in_phase += cp.phase_index == gpu_phase ? 1 : 0;
  ASSERT_GT(in_phase, 2u);
  std::size_t seen = 0;
  for (const RunCheckpoint& cp : checkpoints) {
    if (cp.phase_index == gpu_phase && ++seen == in_phase / 2) mid = &cp;
  }
  ASSERT_NE(mid, nullptr);

  StreamControl resume;
  resume.resume = mid;
  Grid g(kDim, s.elem_bytes);
  g.fill_poison();
  const RunResult r = ex.run(s, streamed, g, nullptr, nullptr, nullptr, &resume);
  EXPECT_TRUE(grids_equal(full, g)) << "resumed at strip " << mid->strip_index;
  EXPECT_EQ(r.rtime_ns, full_r.rtime_ns);
  expect_same_simulation(r, ex.estimate(in, streamed), "resumed run");
}

}  // namespace
}  // namespace wavetune::core
