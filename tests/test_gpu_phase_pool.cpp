// GPU phases run their functional work on the executor's thread pool:
// one dataflow sweep per single-GPU phase or strip, one task per device
// per halo epoch for the multi-GPU split. None of that may depend on the
// pool size:
//
//   * every GPU-phase program shape gives a grid bit-identical to
//     run_serial at 1, 2 and 4 pool workers;
//   * every simulated RunResult / PhaseTiming field equals estimate()'s
//     (launch counts, swaps, strips, serialized_ns, ...) — the charges are
//     made by the launch loops, never by the functional sweep;
//   * a streamed run resumed mid-phase from a strip checkpoint on a 4-worker
//     pool reproduces the uninterrupted grid and timing.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/phase_program.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::core {
namespace {

constexpr std::size_t kDim = 150;
constexpr std::size_t kStripRows = 23;  // does not divide kDim

WavefrontSpec spec() {
  apps::SyntheticParams p;
  p.dim = kDim;
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
