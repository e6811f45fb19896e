// Out-of-core streaming strips (core/streaming.hpp + the executor's
// strip interpretation):
//
//   * apply_strips stamps the strip axis onto every CPU / single-GPU
//     phase, the validator bounds it, and describe() salts the shape;
//   * strip execution is BIT-IDENTICAL to the whole-grid program for all
//     four apps, both CPU schedulers, paper / cpu-only / split-band
//     shapes, at strip sizes that do NOT divide the grid side;
//   * run and estimate stay ONE walk on streamed programs (simulated
//     fields agree exactly), and the double-buffered schedule is never
//     slower than its own serialized-strip baseline;
//   * peak simulated-device residency is O(strip_rows x dim), asserted
//     through the accounting allocator (ocl::Buffer);
//   * strip boundaries are checkpoint points: a run resumed from a
//     mid-run RunCheckpoint reproduces the exact grid and timing;
//   * residency-capped planning picks a fitting strip size and refuses
//     impossible caps with a typed error.
#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/phase_program.hpp"
#include "ocl/buffer.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::core {
namespace {

bool grids_equal(const Grid& a, const Grid& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool has_poison_cell(const Grid& g) {
  const std::size_t elem = g.elem_bytes();
  std::vector<std::byte> poison(elem, Grid::kPoison);
  for (std::size_t i = 0; i < g.dim(); ++i) {
    for (std::size_t j = 0; j < g.dim(); ++j) {
      if (std::memcmp(g.cell_unchecked(i, j), poison.data(), elem) == 0) return true;
    }
  }
  return false;
}

struct AppCase {
  const char* name;
  WavefrontSpec spec;
};

std::vector<AppCase> small_apps(std::size_t dim) {
  std::vector<AppCase> out;
  {
    apps::EditDistParams p;
    p.str_a = apps::random_dna(dim, 11);
    p.str_b = apps::random_dna(dim, 22);
    out.push_back({"editdist", apps::make_editdist_spec(p)});
  }
  {
    apps::SeqCmpParams p;
    p.seq_a = apps::random_dna(dim, 33);
    p.seq_b = apps::random_dna(dim, 44);
    out.push_back({"seqcmp", apps::make_seqcmp_spec(p)});
  }
  {
    apps::NashParams p;
    p.dim = dim;
    p.strategies = 3;
    p.fp_iterations = 4;
    out.push_back({"nash", apps::make_nash_spec(p)});
  }
  {
    apps::SyntheticParams p;
    p.dim = dim;
    p.tsize = 20.0;
    p.dsize = 2;
    p.functional_iters = 3;
    out.push_back({"synthetic", apps::make_synthetic_spec(p)});
  }
  return out;
}

/// The whole-grid program shapes the strip axis must be transparent over:
/// the paper's single-GPU three-phase shape, cpu-only pipelines under
/// both schedulers, and a split GPU band.
struct ProgramCase {
  std::string name;
  PhaseProgram program;
};

std::vector<ProgramCase> base_programs(const InputParams& in) {
  std::vector<ProgramCase> out;
  const TunableParams hybrid{4, 20, -1, 5};  // single-GPU band
  out.push_back({"paper-barrier", plan_phases(in, hybrid, cpu::Scheduler::kBarrier)});
  out.push_back({"paper-dataflow", plan_phases(in, hybrid, cpu::Scheduler::kDataflow)});
  out.push_back({"cpu-only-barrier",
                 make_cpu_only_program(in, 4, 3, cpu::Scheduler::kBarrier)});
  out.push_back({"cpu-only-dataflow",
                 make_cpu_only_program(in, 4, 3, cpu::Scheduler::kDataflow)});
  out.push_back({"split-band",
                 split_gpu_band(plan_phases(in, hybrid, cpu::Scheduler::kBarrier), 2)});
  return out;
}

// --- apply_strips / validator / describe ---------------------------------

TEST(ApplyStrips, StampsEveryNonMultiPhaseAndClampsToDim) {
  const InputParams in{33, 20.0, 2};
  PhaseProgram p = apply_strips(plan_phases(in, TunableParams{4, 20, -1, 5}), 7, 3);
  for (const PhaseDesc& ph : p.phases) {
    EXPECT_EQ(ph.strip_rows, 7u);
    EXPECT_EQ(ph.strip_buffers, 3u);
    EXPECT_TRUE(ph.streamed());
    EXPECT_EQ(ph.strip_count(33), 5u);  // ceil(33 / 7)
  }
  p.validate();
  // Multi-GPU phases keep the wedge split and stay whole-grid.
  PhaseProgram multi = apply_strips(plan_phases(in, TunableParams{4, 20, 2, 5}), 7);
  for (const PhaseDesc& ph : multi.phases) {
    if (ph.device == PhaseDevice::kGpuMulti) {
      EXPECT_FALSE(ph.streamed());
    }
  }
  multi.validate();
  // Clamp: strips taller than the grid collapse to one whole-grid strip.
  const PhaseProgram tall = apply_strips(plan_phases(in, TunableParams{4, -1, -1, 1}), 999);
  EXPECT_EQ(tall.phases.front().strip_rows, 33u);
}

TEST(ApplyStrips, ValidatorRejectsOutOfRangeStripAxes) {
  const InputParams in{32, 20.0, 2};
  PhaseProgram p = plan_phases(in, TunableParams{4, 20, -1, 5});
  p.phases[1].strip_rows = 40;  // > dim
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.phases[1].strip_rows = 8;
  p.phases[1].strip_buffers = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.phases[1].strip_buffers = 4;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.phases[1].strip_buffers = 2;
  p.validate();
  PhaseProgram multi = plan_phases(in, TunableParams{4, 20, 2, 5});
  multi.phases[1].strip_rows = 8;  // strips on a kGpuMulti phase
  EXPECT_THROW(multi.validate(), std::invalid_argument);
}

TEST(ApplyStrips, DescribeSaltsTheStripAxis) {
  const InputParams in{33, 20.0, 2};
  const PhaseProgram whole = plan_phases(in, TunableParams{4, 20, -1, 5});
  const PhaseProgram s7 = apply_strips(whole, 7, 2);
  const PhaseProgram s7b3 = apply_strips(whole, 7, 3);
  EXPECT_NE(whole.describe(), s7.describe());
  EXPECT_NE(s7.describe(), s7b3.describe());
  EXPECT_NE(s7.describe().find("s7x2"), std::string::npos) << s7.describe();
}

// --- bit-identical strip execution ---------------------------------------

TEST(StreamedExecution, StripVsWholeGridBitIdenticalAcrossAppsAndPrograms) {
  const std::size_t dim = 33;
  HybridExecutor ex(sim::make_i7_2600k(), 2);
  for (const AppCase& app : small_apps(dim)) {
    const InputParams in = app.spec.inputs();
    Grid ref(dim, app.spec.elem_bytes);
    ex.run_serial(app.spec, ref);
    for (const ProgramCase& pc : base_programs(in)) {
      // 7 and 5 do not divide 33; 1 is the degenerate row-at-a-time case.
      for (std::size_t strip_rows : {std::size_t{7}, std::size_t{5}, std::size_t{1}}) {
        for (std::size_t buffers : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
          const PhaseProgram streamed = apply_strips(pc.program, strip_rows, buffers);
          Grid g(dim, app.spec.elem_bytes);
          g.fill_poison();
          ex.run(app.spec, streamed, g);
          EXPECT_FALSE(has_poison_cell(g))
              << app.name << " " << pc.name << " " << streamed.describe();
          EXPECT_TRUE(grids_equal(ref, g))
              << app.name << " " << pc.name << " " << streamed.describe();
        }
      }
    }
  }
}

TEST(StreamedExecution, RunAndEstimateAgreeOnStreamedPrograms) {
  const std::size_t dim = 29;
  HybridExecutor ex(sim::make_i7_2600k(), 2);
  const auto app = small_apps(dim).front();
  const InputParams in = app.spec.inputs();
  for (const ProgramCase& pc : base_programs(in)) {
    for (std::size_t strip_rows : {std::size_t{6}, std::size_t{11}}) {
      const PhaseProgram streamed = apply_strips(pc.program, strip_rows, 2);
      Grid g(dim, app.spec.elem_bytes);
      const RunResult r = ex.run(app.spec, streamed, g);
      const RunResult est = ex.estimate(in, streamed);
      ASSERT_EQ(r.breakdown.phases.size(), streamed.phases.size());
      EXPECT_DOUBLE_EQ(r.rtime_ns, est.rtime_ns) << pc.name;
      for (std::size_t i = 0; i < streamed.phases.size(); ++i) {
        const PhaseTiming& a = r.breakdown.phases[i];
        const PhaseTiming& b = est.breakdown.phases[i];
        EXPECT_DOUBLE_EQ(a.ns, b.ns) << pc.name << " phase " << i;
        EXPECT_DOUBLE_EQ(a.serialized_ns, b.serialized_ns) << pc.name << " phase " << i;
        EXPECT_DOUBLE_EQ(a.kernel_busy_ns, b.kernel_busy_ns) << pc.name << " phase " << i;
        EXPECT_EQ(a.strips, b.strips) << pc.name << " phase " << i;
        EXPECT_EQ(a.kernel_launches, b.kernel_launches) << pc.name << " phase " << i;
      }
    }
  }
}

TEST(StreamedExecution, OverlapNeverMakesTheScheduleSlowerThanSerializedStrips) {
  const InputParams in{64, 20.0, 2};
  HybridExecutor ex(sim::make_i7_2600k(), 1);
  const PhaseProgram base = plan_phases(in, TunableParams{4, 30, -1, 5});
  for (std::size_t buffers : {std::size_t{2}, std::size_t{3}}) {
    const PhaseProgram streamed = apply_strips(base, 8, buffers);
    const RunResult r = ex.estimate(in, streamed);
    bool saw_gpu_strips = false;
    for (const PhaseTiming& t : r.breakdown.phases) {
      if (t.device != PhaseDevice::kGpuSingle) continue;
      saw_gpu_strips = true;
      EXPECT_GT(t.strips, 1u);
      // The overlapped schedule can never lose to its own serialized
      // baseline: it is the same event graph minus the cross-strip waits.
      EXPECT_LE(t.ns, t.serialized_ns);
      EXPECT_GT(t.kernel_busy_ns, 0.0);
    }
    EXPECT_TRUE(saw_gpu_strips);
  }
}

// --- residency ------------------------------------------------------------

TEST(StreamedExecution, PeakDeviceResidencyIsBoundedByTheStripPool) {
  const std::size_t dim = 64;
  apps::SyntheticParams sp;
  sp.dim = dim;
  sp.tsize = 20.0;
  sp.dsize = 2;
  sp.functional_iters = 2;
  const WavefrontSpec spec = apps::make_synthetic_spec(sp);
  const InputParams in = spec.inputs();
  const std::size_t elem = spec.elem_bytes;
  HybridExecutor ex(sim::make_i7_2600k(), 1);
  const PhaseProgram whole = plan_phases(in, TunableParams{4, 30, -1, 5});

  ocl::Buffer::reset_peak();
  {
    Grid g(dim, elem);
    ex.run(spec, whole, g);
  }
  const std::size_t whole_peak = ocl::Buffer::peak_bytes();
  EXPECT_GE(whole_peak, whole_grid_resident_bytes(dim, elem));

  const std::size_t strip_rows = 8, buffers = 2;
  ocl::Buffer::reset_peak();
  Grid ref(dim, elem);
  {
    Grid g(dim, elem);
    ex.run(spec, apply_strips(whole, strip_rows, buffers), g);
    std::memcpy(ref.data(), g.data(), g.size_bytes());
  }
  const std::size_t streamed_peak = ocl::Buffer::peak_bytes();
  EXPECT_LE(streamed_peak, streamed_resident_bytes(dim, elem, strip_rows, buffers));
  EXPECT_LT(streamed_peak, whole_peak);

  Grid whole_g(dim, elem);
  ex.run(spec, whole, whole_g);
  EXPECT_TRUE(grids_equal(ref, whole_g));
}

// --- checkpoint / resume --------------------------------------------------

TEST(Checkpoint, SerializeDeserializeRoundTrip) {
  RunCheckpoint cp;
  cp.program_digest = "cpu[t4,barrier,s7x2]:0-32";
  cp.dim = 4;
  cp.elem_bytes = 2;
  cp.phase_index = 1;
  cp.strip_index = 3;
  cp.grid.resize(4 * 4 * 2);
  for (std::size_t i = 0; i < cp.grid.size(); ++i) cp.grid[i] = std::byte(i * 7);
  const std::vector<std::byte> bytes = cp.serialize();
  const RunCheckpoint back = RunCheckpoint::deserialize(bytes);
  EXPECT_EQ(back.program_digest, cp.program_digest);
  EXPECT_EQ(back.dim, cp.dim);
  EXPECT_EQ(back.elem_bytes, cp.elem_bytes);
  EXPECT_EQ(back.phase_index, cp.phase_index);
  EXPECT_EQ(back.strip_index, cp.strip_index);
  EXPECT_EQ(back.grid, cp.grid);

  // Corruptions are loud, never silent garbage.
  std::vector<std::byte> bad = bytes;
  bad[0] = std::byte{0xFF};
  EXPECT_THROW(RunCheckpoint::deserialize(bad), CheckpointError);
  std::vector<std::byte> truncated(bytes.begin(), bytes.end() - 5);
  EXPECT_THROW(RunCheckpoint::deserialize(truncated), CheckpointError);

  EXPECT_THROW(cp.validate_against("other-program", 4, 2), CheckpointError);
  EXPECT_THROW(cp.validate_against(cp.program_digest, 5, 2), CheckpointError);
  cp.validate_against(cp.program_digest, 4, 2);
}

TEST(Checkpoint, SaveAndLoadFile) {
  RunCheckpoint cp;
  cp.program_digest = "x";
  cp.dim = 2;
  cp.elem_bytes = 1;
  cp.grid.assign(4, std::byte{9});
  const std::string path = "test_streaming_ckpt.bin";
  cp.save_file(path);
  const RunCheckpoint back = RunCheckpoint::load_file(path);
  EXPECT_EQ(back.grid, cp.grid);
  std::remove(path.c_str());
  EXPECT_THROW(RunCheckpoint::load_file(path), CheckpointError);
}

TEST(StreamedExecution, ResumeFromMidRunCheckpointReproducesGridAndTiming) {
  const std::size_t dim = 33;
  HybridExecutor ex(sim::make_i7_2600k(), 2);
  for (const AppCase& app : small_apps(dim)) {
    const InputParams in = app.spec.inputs();
    const PhaseProgram streamed =
        apply_strips(plan_phases(in, TunableParams{4, 20, -1, 5}), 7, 2);

    std::vector<RunCheckpoint> checkpoints;
    StreamControl record;
    record.on_checkpoint = [&](const RunCheckpoint& cp) { checkpoints.push_back(cp); };
    Grid full(dim, app.spec.elem_bytes);
    const RunResult full_r = ex.run(app.spec, streamed, full, nullptr, nullptr, nullptr,
                                    &record);
    ASSERT_GT(checkpoints.size(), 2u) << app.name;

    // Resume from a checkpoint in the middle of the run: the grid must be
    // bit-identical and the simulated timing EXACTLY that of the
    // uninterrupted run (charged in full, executed from the cursor).
    for (const std::size_t pick : {std::size_t{1}, checkpoints.size() / 2,
                                   checkpoints.size() - 1}) {
      StreamControl resume;
      resume.resume = &checkpoints[pick];
      Grid g(dim, app.spec.elem_bytes);
      g.fill_poison();
      const RunResult r = ex.run(app.spec, streamed, g, nullptr, nullptr, nullptr, &resume);
      EXPECT_TRUE(grids_equal(full, g)) << app.name << " checkpoint " << pick;
      EXPECT_DOUBLE_EQ(r.rtime_ns, full_r.rtime_ns) << app.name << " checkpoint " << pick;
    }

    // A digest mismatch (different program shape) must refuse to resume.
    const PhaseProgram other =
        apply_strips(plan_phases(in, TunableParams{4, 20, -1, 5}), 5, 2);
    StreamControl wrong;
    wrong.resume = &checkpoints.front();
    Grid g(dim, app.spec.elem_bytes);
    EXPECT_THROW(ex.run(app.spec, other, g, nullptr, nullptr, nullptr, &wrong),
                 CheckpointError);
  }
}

TEST(StreamedExecution, CheckpointCadenceHonoursEveryStrips) {
  const std::size_t dim = 32;
  HybridExecutor ex(sim::make_i7_2600k(), 1);
  const auto app = small_apps(dim).front();
  const PhaseProgram streamed =
      apply_strips(plan_phases(app.spec.inputs(), TunableParams{4, -1, -1, 1}), 4, 2);
  std::size_t every_strip = 0, every_other = 0;
  StreamControl c1;
  c1.on_checkpoint = [&](const RunCheckpoint&) { ++every_strip; };
  StreamControl c2;
  c2.checkpoint_every_strips = 2;
  c2.on_checkpoint = [&](const RunCheckpoint&) { ++every_other; };
  Grid g1(dim, app.spec.elem_bytes), g2(dim, app.spec.elem_bytes);
  ex.run(app.spec, streamed, g1, nullptr, nullptr, nullptr, &c1);
  ex.run(app.spec, streamed, g2, nullptr, nullptr, nullptr, &c2);
  EXPECT_GT(every_strip, 0u);
  EXPECT_LT(every_other, every_strip);
}

// --- residency-capped planning -------------------------------------------

TEST(StreamingPlan, NoCapOrFittingCapKeepsTheWholeGridProgram) {
  const InputParams in{64, 20.0, 2};
  const TunableParams params{4, 30, -1, 5};
  const PhaseProgram base = plan_phases(in, params);
  EXPECT_EQ(plan_phases_streamed(in, params, cpu::Scheduler::kBarrier, {}).describe(),
            base.describe());
  PlanConstraints fits;
  fits.max_resident_bytes = whole_grid_resident_bytes(64, in.elem_bytes());
  EXPECT_EQ(plan_phases_streamed(in, params, cpu::Scheduler::kBarrier, fits).describe(),
            base.describe());
}

TEST(StreamingPlan, CapForcesAFittingStripAxis) {
  const InputParams in{64, 20.0, 2};
  const TunableParams params{4, 30, -1, 5};
  PlanConstraints c;
  c.max_resident_bytes = whole_grid_resident_bytes(64, in.elem_bytes()) / 4;
  c.strip_buffers = 2;
  const PhaseProgram p = plan_phases_streamed(in, params, cpu::Scheduler::kBarrier, c);
  bool streamed = false;
  for (const PhaseDesc& ph : p.phases) {
    if (ph.device != PhaseDevice::kGpuSingle) continue;
    streamed = true;
    ASSERT_TRUE(ph.streamed());
    EXPECT_LE(streamed_resident_bytes(64, in.elem_bytes(), ph.strip_rows, ph.strip_buffers),
              c.max_resident_bytes);
  }
  EXPECT_TRUE(streamed);
  p.validate();
}

TEST(StreamingPlan, ImpossibleCapAndMultiGpuProgramsAreTypedErrors) {
  const InputParams in{64, 20.0, 2};
  PlanConstraints tiny;
  tiny.max_resident_bytes = 16;  // cannot hold one strip row
  EXPECT_THROW(
      plan_phases_streamed(in, TunableParams{4, 30, -1, 5}, cpu::Scheduler::kBarrier, tiny),
      StreamingPlanError);
  // Multi-GPU wedges cannot stream; exceeding the cap there must be loud.
  PlanConstraints half;
  half.max_resident_bytes = whole_grid_resident_bytes(64, in.elem_bytes()) / 2;
  EXPECT_THROW(apply_residency_cap(plan_phases(in, TunableParams{4, 30, 2, 5}), in, half),
               StreamingPlanError);
}

TEST(StreamingPlan, PureCpuProgramsIgnoreTheCap) {
  const InputParams in{64, 20.0, 2};
  const TunableParams cpu_only{4, -1, -1, 1};
  PlanConstraints c;
  c.max_resident_bytes = 64;  // far below even one row
  const PhaseProgram p = plan_phases_streamed(in, cpu_only, cpu::Scheduler::kBarrier, c);
  for (const PhaseDesc& ph : p.phases) EXPECT_FALSE(ph.streamed());
}

}  // namespace
}  // namespace wavetune::core
