// A whole-grid phase is the one-strip case of the strip schedule.
//
// For every whole-grid program P that runs CPU and single-GPU phases,
// apply_strips(P, dim, 1) — one strip of dim rows through a 1-buffer
// pool — must be the same computation:
//
//   * estimate() and run() charge the same simulated ns, transfer_in_ns,
//     transfer_out_ns and kernel_launches per phase;
//   * the ocl::Trace command lists are identical (device, kind, interval,
//     payload), because each GPU phase starts on a fresh simulated clock;
//   * the grids are bit-identical (and equal run_serial).
//
// P itself keeps reporting as a whole-grid program: strips == 0,
// serialized_ns == 0 and kernel_busy_ns == 0 on every phase, no
// checkpoint under a StreamControl, and exactly two kGpuTransfer fault-site
// visits (bulk in, bulk out) per GPU phase.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/phase_program.hpp"
#include "fault/injector.hpp"
#include "ocl/trace.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::core {
namespace {

constexpr std::size_t kDim = 61;

WavefrontSpec spec() {
  apps::SyntheticParams p;
  p.dim = kDim;
  p.tsize = 30.0;
  p.dsize = 2;
  p.functional_iters = 3;
  return apps::make_synthetic_spec(p);
}

struct ProgramCase {
  std::string name;
  PhaseProgram program;
};

std::vector<ProgramCase> whole_grid_programs(const InputParams& in) {
  const long long band = static_cast<long long>(in.dim) / 2;
  std::vector<ProgramCase> out;
  out.push_back({"single-untiled", plan_phases(in, TunableParams{4, band, -1, 1})});
  out.push_back({"single-tile8", plan_phases(in, TunableParams{4, band, -1, 8},
                                             cpu::Scheduler::kDataflow)});
  out.push_back({"full-grid-band", plan_phases(in, TunableParams{4, 2 * band, -1, 1})});
  out.push_back({"split-band", split_gpu_band(plan_phases(in, TunableParams{4, band, -1, 1}), 3)});
  return out;
}

bool grids_equal(const Grid& a, const Grid& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

void expect_same_charges(const RunResult& whole, const RunResult& strip, const std::string& what) {
  EXPECT_EQ(whole.rtime_ns, strip.rtime_ns) << what;
  ASSERT_EQ(whole.breakdown.phases.size(), strip.breakdown.phases.size()) << what;
  for (std::size_t p = 0; p < whole.breakdown.phases.size(); ++p) {
    const PhaseTiming& a = whole.breakdown.phases[p];
    const PhaseTiming& b = strip.breakdown.phases[p];
    const std::string at = what + " phase " + std::to_string(p);
    EXPECT_EQ(a.ns, b.ns) << at;
    EXPECT_EQ(a.transfer_in_ns, b.transfer_in_ns) << at;
    EXPECT_EQ(a.transfer_out_ns, b.transfer_out_ns) << at;
    EXPECT_EQ(a.kernel_launches, b.kernel_launches) << at;
  }
}

void expect_same_trace(const ocl::Trace& whole, const ocl::Trace& strip, const std::string& what) {
  ASSERT_EQ(whole.size(), strip.size()) << what;
  for (std::size_t i = 0; i < whole.size(); ++i) {
    const ocl::TraceRecord& a = whole.records()[i];
    const ocl::TraceRecord& b = strip.records()[i];
    const std::string at = what + " record " + std::to_string(i);
    EXPECT_EQ(a.device, b.device) << at;
    EXPECT_EQ(a.kind, b.kind) << at;
    EXPECT_EQ(a.start_ns, b.start_ns) << at;
    EXPECT_EQ(a.end_ns, b.end_ns) << at;
    EXPECT_EQ(a.bytes, b.bytes) << at;
    EXPECT_EQ(a.items, b.items) << at;
  }
}

void expect_whole_grid_report(const RunResult& r, const std::string& what) {
  for (std::size_t p = 0; p < r.breakdown.phases.size(); ++p) {
    const PhaseTiming& t = r.breakdown.phases[p];
    const std::string at = what + " phase " + std::to_string(p);
    EXPECT_EQ(t.strips, 0u) << at;
    EXPECT_EQ(t.serialized_ns, 0.0) << at;
    EXPECT_EQ(t.kernel_busy_ns, 0.0) << at;
  }
}

TEST(WholeGridStrip, EstimateEqualsTheOneStripProgram) {
  const WavefrontSpec s = spec();
  const InputParams in = s.inputs();
  const HybridExecutor ex(sim::make_i7_2600k(), 1);
  for (const ProgramCase& c : whole_grid_programs(in)) {
    ASSERT_GT(c.program.gpu_phase_count(), 0u) << c.name;
    const PhaseProgram one_strip = apply_strips(c.program, kDim, 1);
    ocl::Trace whole_trace, strip_trace;
    const RunResult whole = ex.estimate(in, c.program, &whole_trace);
    const RunResult strip = ex.estimate(in, one_strip, &strip_trace);
    expect_same_charges(whole, strip, c.name);
    expect_same_trace(whole_trace, strip_trace, c.name);
    expect_whole_grid_report(whole, c.name);
  }
}

TEST(WholeGridStrip, RunEqualsTheOneStripProgram) {
  const WavefrontSpec s = spec();
  const InputParams in = s.inputs();
  HybridExecutor ex(sim::make_i7_2600k(), 2);
  Grid ref(kDim, s.elem_bytes);
  ex.run_serial(s, ref);
  for (const ProgramCase& c : whole_grid_programs(in)) {
    const PhaseProgram one_strip = apply_strips(c.program, kDim, 1);
    ocl::Trace whole_trace, strip_trace;
    Grid whole_g(kDim, s.elem_bytes), strip_g(kDim, s.elem_bytes);
    whole_g.fill_poison();
    strip_g.fill_poison();

    std::size_t checkpoints = 0;
    StreamControl stream;
    stream.on_checkpoint = [&](const RunCheckpoint&) { ++checkpoints; };
    const RunResult whole =
        ex.run(s, c.program, whole_g, &whole_trace, nullptr, nullptr, &stream);
    const RunResult strip = ex.run(s, one_strip, strip_g, &strip_trace);

    expect_same_charges(whole, strip, c.name);
    expect_same_trace(whole_trace, strip_trace, c.name);
    expect_whole_grid_report(whole, c.name);
    EXPECT_EQ(checkpoints, 0u) << c.name << ": whole-grid phases have no strip boundaries";
    EXPECT_TRUE(grids_equal(whole_g, strip_g)) << c.name;
    EXPECT_TRUE(grids_equal(ref, whole_g)) << c.name;
  }
}

TEST(WholeGridStrip, EachGpuPhaseVisitsTheBulkTransferSiteTwice) {
  const WavefrontSpec s = spec();
  const InputParams in = s.inputs();
  HybridExecutor ex(sim::make_i7_2600k(), 2);
  for (const ProgramCase& c : whole_grid_programs(in)) {
    Grid g(kDim, s.elem_bytes);
    // A site counts visits only when it has a trigger; a countdown no
    // run reaches counts them without ever firing.
    fault::InjectionPlan never;
    never.at(fault::Site::kGpuTransfer).countdown = ~std::uint64_t{0};
    never.at(fault::Site::kStripTransfer).countdown = ~std::uint64_t{0};
    {
      fault::ScopedInjection arm(never);
      ex.run(s, c.program, g);
    }
    const fault::Injector& inj = fault::Injector::instance();
    EXPECT_EQ(inj.visits(fault::Site::kGpuTransfer), 2 * c.program.gpu_phase_count()) << c.name;
    EXPECT_EQ(inj.visits(fault::Site::kStripTransfer), 0u) << c.name;
    EXPECT_EQ(inj.injected_total(), 0u) << c.name;
  }
}

}  // namespace
}  // namespace wavetune::core
