// perfbench: the wavetune repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one named workload (workloads.hpp) against api::Engine from this
// single process: set-up (repeated, median reported), a warm-up on the
// workload's own traffic, then a measured window of S seconds. Every job's
// output is checked against references computed in set-up. The last line
// of standard output is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (a run whose window is
// split into an untraced and a traced half, followed by direct probes of
// the compile path and the CPU executor). README.md lists every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "autotune/search.hpp"
#include "autotune/training.hpp"
#include "autotune/tuner.hpp"
#include "core/executor.hpp"
#include "core/phase_program.hpp"
#include "ocl/buffer.hpp"
#include "sim/system_profile.hpp"
#include "util/cli.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wavetune;

/// Set-up repeats until it has run kSetupMinReps times and kSetupMinS
/// seconds in total (at most kSetupMaxReps times); setup_s is the median.
constexpr std::size_t kSetupMinReps = 5;
constexpr std::size_t kSetupMaxReps = 25;
constexpr double kSetupMinS = 1.5;
/// Warm-up on the workload's own traffic before the timed set-ups: a VM
/// runs threads about 3x slower for its first second of load.
constexpr double kWarmupS = 2.5;
/// Warm-up of the kept set-up, between the timed set-ups and the window.
constexpr double kRewarmS = 2.0;
/// Latency percentiles are taken over chunks of at most kChunkJobs
/// consecutive completions, and the median over the chunks is reported. A
/// chunk of 100 to 199 jobs supports p90 with at least 10 samples beyond
/// it. A whole window's p99 would be decided by a few host stalls, and the
/// host's wake-up latency swings from run to run.
constexpr std::size_t kChunkJobs = 199;
/// Compile-miss probes of the traced run.
constexpr int kMissProbes = 16;
constexpr int kHitProbes = 2000;
/// Pool workers of the traced run's CPU-scaling probe (align_cpu's pool;
/// the calling thread helps too).
constexpr std::size_t kScalingWorkers = 2;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// -------------------------------------------------------------------- set-up

/// Everything a run measures against, built by one timed set-up.
struct Setup {
  std::vector<autotune::InstanceResult> sweep;
  autotune::Autotuner tuner;
  std::unique_ptr<api::Engine> engine;
  std::unique_ptr<Workload> workload;
  double sweep_s = 0.0;
  double train_s = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<Setup> set_up(const WorkloadInfo& info, std::uint64_t seed, double horizon_s) {
  const sim::SystemProfile system = sim::make_i7_2600k();
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  s->sweep = autotune::ExhaustiveSearch(system, autotune::ParamSpace::reduced()).sweep();
  s->sweep_s = seconds_since(t0);
  const auto t1 = Clock::now();
  s->tuner = autotune::Autotuner::train(s->sweep, system);
  s->train_s = seconds_since(t1);

  api::EngineOptions options;
  options.pool_workers = info.budget.pool_workers;
  options.queue_workers = info.budget.queue_workers;
  options.queue_capacity = 256;
  s->engine = std::make_unique<api::Engine>(system, s->tuner, options);
  s->workload = info.make(horizon_s);
  s->workload->prepare(*s->engine, seed);
  s->total_s = seconds_since(t0);
  return s;
}

/// Geometric mean over the training tables' held-out instances of tuned
/// speedup over exhaustive-best speedup, both in simulated time.
double tuned_vs_best(const Setup& s) {
  api::EngineOptions options;
  options.pool_workers = 1;
  options.queue_workers = 1;
  api::Engine engine(s.engine->profile(), s.tuner, options);
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const autotune::InstanceResult& res : autotune::build_training(s.sweep).holdout) {
    const auto best = res.best();
    if (!best) continue;
    const double tuned = engine.estimate(engine.compile(res.instance)).rtime_ns;
    log_sum += std::log(best->rtime_ns / tuned);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

// -------------------------------------------------------------------- window

struct Window {
  Tally tally;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  api::EngineStats before, after;
  api::ShardedQueueStats queue_before, queue_after;
  double peak_device_bytes = 0.0;

  const std::deque<JobSample>& jobs() const { return tally.jobs; }
  /// `field` of every ok job.
  template <typename Field>
  std::vector<double> ok(Field field) const {
    std::vector<double> v;
    for (const JobSample& j : jobs()) {
      if (j.outcome == Outcome::kOk) v.push_back(static_cast<double>(field(j)));
    }
    return v;
  }
  std::vector<double> ok_latencies() const {
    return ok([](const JobSample& j) { return j.latency_ms; });
  }
  double jobs_per_s() const {
    return ratio(static_cast<double>(ok_latencies().size()), elapsed_s);
  }
  double engine_jobs() const {
    return static_cast<double>(after.jobs_completed - before.jobs_completed);
  }
};

Window measure(api::Engine& engine, Workload& workload, double seconds, bool traced) {
  Window w;
  ocl::Buffer::reset_peak();
  w.before = engine.stats();
  w.queue_before = engine.queue_stats();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  workload.drive(engine, seconds, traced, w.tally);
  w.elapsed_s = seconds_since(t0);
  w.cpu_s = cpu_seconds() - cpu0 - w.tally.idle_cpu_s;
  w.after = engine.stats();
  w.queue_after = engine.queue_stats();
  w.peak_device_bytes = static_cast<double>(ocl::Buffer::peak_bytes());
  return w;
}

/// The window's job_p50_ms and job_tail_ms (see kChunkJobs).
struct Latency {
  double p50 = 0.0;
  Tail tail;  ///< value: median over chunks; percentile and beyond: the lowest of any chunk
  std::size_t chunks = 0;
};

Latency latency_of(const Window& w) {
  std::vector<std::pair<float, double>> done;  // (completion time, latency) of ok jobs
  for (const JobSample& j : w.jobs()) {
    if (j.outcome == Outcome::kOk) done.emplace_back(j.done_s, j.latency_ms);
  }
  std::stable_sort(done.begin(), done.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::size_t n = done.size();
  Latency out;
  out.chunks = std::max<std::size_t>(1, (n + kChunkJobs - 1) / kChunkJobs);
  out.tail.percentile = 1.0;
  out.tail.beyond = n;
  out.tail.samples = n;
  std::vector<double> p50s, tails;
  for (std::size_t c = 0; c < out.chunks; ++c) {
    std::vector<double> chunk;
    for (std::size_t i = c * n / out.chunks; i < (c + 1) * n / out.chunks; ++i) {
      chunk.push_back(done[i].second);
    }
    const Tail t = tail(chunk);
    out.tail.percentile = std::min(out.tail.percentile, t.percentile);
    out.tail.beyond = std::min(out.tail.beyond, t.beyond);
    tails.push_back(t.value);
    p50s.push_back(median(std::move(chunk)));
  }
  out.p50 = median(std::move(p50s));
  out.tail.value = median(std::move(tails));
  return out;
}

bool all_correct(const Tally& t) {
  return std::none_of(t.jobs.begin(), t.jobs.end(), [](const JobSample& j) {
    return j.outcome == Outcome::kWrong || j.outcome == Outcome::kFailed;
  });
}

double late_p99_ms(const Window& w) {
  std::vector<double> late;
  for (const JobSample& j : w.jobs()) late.push_back(j.late_ms);
  std::sort(late.begin(), late.end());
  return percentile_sorted(late, 0.99);
}

/// An open-loop window whose generator ran too late did not offer the
/// scheduled load; its numbers are not reported.
bool load_was_offered(const WorkloadInfo& info, const Window& w) {
  if (!info.open_loop || late_p99_ms(w) <= kMaxLateShareOfSlo * info.slo_ms) return true;
  std::fprintf(stderr,
               "invalid run: generator p99 lateness %.3f ms exceeds %.0f%% of the %.0f ms limit\n",
               late_p99_ms(w), kMaxLateShareOfSlo * 100.0, info.slo_ms);
  return false;
}

/// Drives `seconds` of the workload's traffic, keeping nothing but
/// whether every output matched.
bool warm_up(Setup& s, double seconds) {
  Tally warm;
  s.workload->drive(*s.engine, seconds, false, warm);
  return all_correct(warm);
}

// -------------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Window& w, const std::vector<Metric>& metrics) {
  const std::size_t attempted = w.jobs().size();
  const std::size_t ok = w.ok_latencies().size();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, attempted - ok);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<Metric> end_to_end(const WorkloadInfo& info, const Window& w, double setup_s,
                               double tuned_best) {
  const std::vector<double> lat = w.ok_latencies();
  std::vector<Outcome> outcomes;
  std::vector<double> latencies;
  for (const JobSample& j : w.jobs()) {
    outcomes.push_back(j.outcome);
    latencies.push_back(j.latency_ms);
  }
  const Shares shares = score(outcomes, latencies, info.slo_ms);
  const Latency l = latency_of(w);
  const Tail& t = l.tail;
  std::printf("job_tail_ms is p%g of each of %zu chunks of %zu samples (at least %zu beyond "
              "it; median over chunks reported)%s; slo %.0f ms\n",
              t.percentile * 100.0, l.chunks, t.samples / l.chunks, t.beyond,
              t.supported() ? "" : " -- too few samples for a supported tail", info.slo_ms);
  const Totals& ok = w.tally.ok;
  return {
      {"setup_s", setup_s, "s"},
      {"cells_per_s", ratio(ok.cells, w.elapsed_s), "cells/s"},
      {"jobs_per_s", w.jobs_per_s(), "jobs/s"},
      {"job_p50_ms", l.p50, "ms"},
      {"job_tail_ms", t.value, "ms"},
      {"ok_share", shares.ok_share(), "ratio"},
      {"slo_share", shares.slo_share(), "ratio"},
      {"cpu_ms_per_job", ratio(w.cpu_s * 1e3, static_cast<double>(lat.size())), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"sim_speedup", ratio(ok.serial_sim_ns, ok.sim_ns), "x"},
      {"tuned_vs_best", tuned_best, "ratio"},
  };
}

// -------------------------------------------------------------- traced probes

/// Median of `fn()` (seconds) over at least `reps` calls and `min_s` total.
template <typename Fn>
double median_time(Fn&& fn, int reps, double min_s) {
  std::vector<double> t;
  const auto t0 = Clock::now();
  while (static_cast<int>(t.size()) < reps || seconds_since(t0) < min_s) t.push_back(fn());
  return median(std::move(t));
}

struct Probes {
  double compile_hit_us = 0.0;
  double compile_miss_ms = 0.0;
  double scaling_eff = 0.0;
  double serial_cells_per_s = 0.0;
};

Probes probe(api::Engine& engine, const core::WavefrontSpec& spec) {
  Probes p;
  engine.compile(spec);
  std::vector<double> hit;
  for (int k = 0; k < kHitProbes; ++k) {
    const auto t0 = Clock::now();
    engine.compile(spec);
    hit.push_back(seconds_since(t0) * 1e6);
  }
  p.compile_hit_us = median(std::move(hit));
  std::vector<double> miss;
  for (int k = 0; k < kMissProbes; ++k) {
    api::CompileOptions options;
    options.cache_tag = "perfbench-miss-probe-" + std::to_string(k);
    const auto t0 = Clock::now();
    engine.compile(spec, options);
    miss.push_back(seconds_since(t0) * 1e3);
  }
  p.compile_miss_ms = median(std::move(miss));

  // CPU scaling: the workload's instance as an all-CPU program, through
  // HybridExecutor directly at 1 and kScalingWorkers pool workers.
  const core::InputParams in{spec.dim, spec.tsize, spec.dsize};
  const api::Plan plan = engine.compile(spec);
  const core::PhaseProgram program =
      plan.program().gpu_phase_count() == 0
          ? plan.program()
          : core::plan_phases(in, core::TunableParams{plan.params().cpu_tile, -1, -1, 1});
  const core::LoweredKernel lowered = spec.lower();
  core::Grid grid(spec.dim, spec.elem_bytes);
  const double cells = static_cast<double>(spec.dim) * static_cast<double>(spec.dim);
  auto cells_per_s = [&](core::HybridExecutor& ex) {
    const auto run_s = [&] {
      return ex.run(spec, program, grid, nullptr, &lowered).wall_ns * 1e-9;
    };
    return cells / median_time(run_s, 3, 0.2);
  };
  core::HybridExecutor one(engine.profile(), 1);
  core::HybridExecutor many(engine.profile(), kScalingWorkers);
  const double cps1 = cells_per_s(one);
  const double cpsn = cells_per_s(many);
  p.scaling_eff = cpsn / (static_cast<double>(kScalingWorkers) * cps1);
  const auto serial_s = [&] {
    const auto t0 = Clock::now();
    one.run_serial(spec, grid, &lowered);
    return seconds_since(t0);
  };
  p.serial_cells_per_s = cells / median_time(serial_s, 3, 0.2);
  return p;
}

std::vector<Metric> per_layer(const Setup& s, const WorkloadInfo& info, const Window& untraced,
                              const Window& w, const Probes& p) {
  const Totals& sum = w.tally.ok;
  const std::vector<double> latency = w.ok_latencies();
  const std::vector<double> exec_ms = w.ok([](const JobSample& j) { return j.exec_ms; });
  const std::vector<double> submit_us = w.ok([](const JobSample& j) { return j.submit_us; });
  std::vector<double> overhead_ms;
  double overhead_sum = 0.0, latency_sum = 0.0;
  for (std::size_t i = 0; i < latency.size(); ++i) {
    overhead_ms.push_back(latency[i] - exec_ms[i]);
    overhead_sum += latency[i] - exec_ms[i];
    latency_sum += latency[i];
  }
  const auto jobs = static_cast<double>(latency.size());
  const double engine_jobs = w.engine_jobs();
  const api::EngineStats& a = w.after;
  const api::EngineStats& b = w.before;
  const auto delta = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(x - y); };
  const double hits = delta(a.plan_cache_hits, b.plan_cache_hits);
  const double misses = delta(a.plans_compiled, b.plans_compiled);
  const double batched = delta(a.jobs_batched, b.jobs_batched);
  const double cpu_share = ratio(sum.cpu_wall_ns, sum.cpu_wall_ns + sum.gpu_wall_ns);
  const double overhead_share = ratio(overhead_sum, latency_sum);
  const double fused_share = ratio(batched, engine_jobs);

  std::printf("engagement %s: api.fused_share=%.3f api.overhead_share=%.3f "
              "core.exec_ms cpu/gpu share=%.3f/%.3f plan_cache_misses=%.0f (traced window)\n",
              info.name.c_str(), fused_share, overhead_share, cpu_share,
              sum.cpu_wall_ns + sum.gpu_wall_ns > 0.0 ? 1.0 - cpu_share : 0.0, misses);
  return {
      {"autotune.sweep_s", s.sweep_s, "s"},
      {"autotune.train_s", s.train_s, "s"},
      {"api.compile_hit_us", p.compile_hit_us, "us"},
      {"api.compile_miss_ms", p.compile_miss_ms, "ms"},
      {"api.plan_cache_hit_share", ratio(hits, hits + misses), "ratio"},
      {"api.submit_us", median(submit_us), "us"},
      {"api.overhead_ms", median(overhead_ms), "ms"},
      {"api.overhead_share", overhead_share, "ratio"},
      {"api.fused_share", fused_share, "ratio"},
      {"api.batch_occupancy", ratio(batched, delta(a.batches_formed, b.batches_formed)), "jobs"},
      {"api.pop_blocks_per_job",
       ratio(delta(w.queue_after.pop_blocks, w.queue_before.pop_blocks), engine_jobs), "count"},
      {"api.pop_steals_per_job",
       ratio(delta(w.queue_after.pop_steals, w.queue_before.pop_steals), engine_jobs), "count"},
      {"core.exec_ms", median(exec_ms), "ms"},
      {"core.cpu_phase_ms", ratio(sum.cpu_wall_ns * 1e-6, jobs), "ms"},
      {"core.gpu_phase_ms", ratio(sum.gpu_wall_ns * 1e-6, jobs), "ms"},
      {"core.wall_per_sim.cpu", ratio(sum.cpu_wall_ns, sum.cpu_sim_ns), "ratio"},
      {"core.wall_per_sim.gpu", ratio(sum.gpu_wall_ns, sum.gpu_sim_ns), "ratio"},
      {"cpu.cells_per_s", ratio(sum.cpu_cells, sum.cpu_wall_ns * 1e-9), "cells/s"},
      {"cpu.scaling_eff", p.scaling_eff, "ratio"},
      {"cpu.serial_cells_per_s", p.serial_cells_per_s, "cells/s"},
      {"ocl.gpu_cells_per_s", ratio(sum.gpu_cells, sum.gpu_wall_ns * 1e-9), "cells/s"},
      {"ocl.kernel_launches", ratio(sum.kernel_launches, jobs), "count"},
      {"ocl.transfer_ms_sim", ratio(sum.transfer_sim_ns * 1e-6, jobs), "sim_ms"},
      {"ocl.overlap_share",
       sum.streamed_serialized_ns > 0.0 ? 1.0 - sum.streamed_ns / sum.streamed_serialized_ns
                                        : 0.0,
       "ratio"},
      {"ocl.peak_device_mb", w.peak_device_bytes / (1024.0 * 1024.0), "MiB"},
      {"sim.job_ms", ratio(sum.sim_ns * 1e-6, jobs), "sim_ms"},
      {"profile.samples_per_job",
       ratio(delta(a.profile_samples_recorded, b.profile_samples_recorded), engine_jobs),
       "count"},
      {"loadgen.offered_per_s", ratio(static_cast<double>(w.jobs().size()), w.elapsed_s),
       "jobs/s"},
      {"loadgen.late_ms_p99", info.open_loop ? late_p99_ms(w) : 0.0, "ms"},
      {"trace.overhead_share", 1.0 - ratio(w.jobs_per_s(), untraced.jobs_per_s()), "ratio"},
  };
}

// ---------------------------------------------------------------------- main

int run(const WorkloadInfo& info, std::uint64_t seed, double seconds, bool traced) {
  const std::size_t cpus = usable_cpus();
  if (info.budget.total() > cpus) {
    std::fprintf(stderr,
                 "refusing to start: %s needs %zu threads (%zu clients + %zu pool + %zu queue "
                 "workers) but only %zu CPUs are usable\n",
                 info.name.c_str(), info.budget.total(), info.budget.clients,
                 info.budget.pool_workers, info.budget.queue_workers, cpus);
    return 2;
  }
  const double horizon_s = kRewarmS + seconds;

  // An untimed set-up and a warm-up on its traffic come first, so the
  // timed set-ups below run on a VM that is past its ramp.
  std::unique_ptr<Setup> setup = set_up(info, seed, horizon_s);
  bool correct = warm_up(*setup, kWarmupS);

  std::vector<double> total, sweep, train;
  double spent = 0.0;
  while (total.size() < kSetupMaxReps && (total.size() < kSetupMinReps || spent < kSetupMinS)) {
    setup.reset();  // the previous set-up's memory is released before the next
    setup = set_up(info, seed, horizon_s);
    spent += setup->total_s;
    total.push_back(setup->total_s);
    sweep.push_back(setup->sweep_s);
    train.push_back(setup->train_s);
  }
  setup->total_s = median(total);
  setup->sweep_s = median(sweep);
  setup->train_s = median(train);
  api::Engine& engine = *setup->engine;
  Workload& workload = *setup->workload;

  // The kept set-up's own warm-up: its engine, caches and grids are new.
  correct = warm_up(*setup, kRewarmS) && correct;

  if (!traced) {
    const Window w = measure(engine, workload, seconds, false);
    correct = correct && all_correct(w.tally);
    if (!load_was_offered(info, w)) return 3;
    print_result(correct, w, end_to_end(info, w, setup->total_s, tuned_vs_best(*setup)));
    return 0;
  }

  const Window untraced = measure(engine, workload, seconds / 2.0, false);
  const Window w = measure(engine, workload, seconds / 2.0, true);
  correct = correct && all_correct(untraced.tally) && all_correct(w.tally);
  if (!load_was_offered(info, untraced) || !load_was_offered(info, w)) return 3;
  const Probes p = probe(engine, workload.probe_spec());
  print_result(correct, w, per_layer(*setup, info, untraced, w, p));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const wavetune::util::Cli cli =
      wavetune::util::Cli::parse_or_exit(argc, argv, {"workload", "seed", "seconds", "trace"});
  const std::string name = cli.get_or("workload", "");
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const WorkloadInfo& w) { return w.name == name; });
  const double seconds = cli.get_double_or("seconds", 10.0);
  if (it == all.end() || seconds <= 0.0) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                         "workloads:");
    for (const WorkloadInfo& w : all) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return run(*it, static_cast<std::uint64_t>(cli.get_int_or("seed", 1)), seconds,
               cli.get_int_or("trace", 0) != 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench failed: %s\n", e.what());
    return 1;
  }
}
