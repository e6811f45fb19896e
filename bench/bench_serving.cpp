// Serving-throughput harness: N closed-loop client threads hammer one
// api::Engine through its sharded lock-free submission path.
//
// Workloads (per client thread, closed loop):
//   submit   submit() + future.get() round-trips of one tiny plan — the
//            job-queue hot path (one pop, one run per job);
//   compile  plan-cache HIT compiles — the lock-free snapshot read;
//   mixed    alternating cache-hit compiles and submit round-trips.
//
// Each cell is time-based: the clients run closed loops for a fixed
// window (0.5 s, 0.1 s under --quick), on a fresh Engine, and the cell is
// repeated kRepeats times. The table and the JSON report the median over
// the repeats of ops/sec and of the p50/p95/p99 client latency, with the
// interquartile range of ops/sec and of the p50/p99; the JSON also keeps
// every repeat's ops/sec and the engine + queue counters of the
// median-throughput repeat:
//
//   bench_serving [--quick] [--json=BENCH_serving.json]
//                 [--threads=1,2,4,8,16] [--faults]
//
// --quick shrinks the window and the thread sweep for CI smoke runs.
//
// --faults swaps the sweep for the degraded-mode one: the submit workload
// under a seeded fault::Injector firing transient faults at the queue and
// executor sites, absorbed by SubmitOptions{max_retries, allow_fallback}.
// Rate 0 is the armed-but-silent control, so the table reads as "what
// does each fault rate cost end to end".
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "apps/synthetic.hpp"
#include "fault/injector.hpp"
#include "sim/system_profile.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace wavetune;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRepeats = 5;

/// One timed window of one cell.
struct Sample {
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  api::EngineStats stats;
  api::ShardedQueueStats queue;
};

/// A cell: kRepeats samples of one (workload, threads[, fault rate]).
struct Cell {
  std::string workload;  // "submit" | "compile" | "mixed"
  int threads = 0;
  double fault_rate = -1.0;  // --faults: injected rate of the cell; < 0 otherwise
  double window_s = 0.0;
  std::vector<Sample> runs;

  std::vector<double> field(double Sample::*f) const {
    std::vector<double> v;
    for (const Sample& r : runs) v.push_back(r.*f);
    return v;
  }
  double median(double Sample::*f) const { return util::median(field(f)); }
  double iqr(double Sample::*f) const {
    const std::vector<double> v = field(f);
    return util::percentile(v, 75.0) - util::percentile(v, 25.0);
  }
  /// The repeat with the median ops/sec (counters are reported from it).
  const Sample& median_run() const {
    std::vector<const Sample*> by_rate;
    for (const Sample& r : runs) by_rate.push_back(&r);
    std::sort(by_rate.begin(), by_rate.end(),
              [](const Sample* a, const Sample* b) { return a->ops_per_s < b->ops_per_s; });
    return *by_rate[by_rate.size() / 2];
  }
};

core::WavefrontSpec tiny_spec() {
  apps::SyntheticParams p;
  p.dim = 16;
  p.tsize = 8.0;
  p.dsize = 1;
  p.functional_iters = 1;
  return apps::make_synthetic_spec(p);
}

/// Linear-interpolated quantile q in [0, 1] of an already sorted sample.
double sorted_quantile(const std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const double idx = q * static_cast<double>(sorted_us.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted_us.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted_us[lo] * (1.0 - frac) + sorted_us[hi] * frac;
}

/// The cache-hit recipes every workload rotates through (all compiled
/// during warmup, so steady state is 100% hits).
const std::vector<core::TunableParams>& hit_recipes() {
  static const std::vector<core::TunableParams> r = {
      {4, 8, 1, 1}, {4, 10, 1, 1}, {2, 8, 0, 1}, {4, 12, -1, 1}};
  return r;
}

/// Runs `threads` closed-loop clients for `window_s` seconds; client t's
/// i-th operation is op(t, i, grid) on a grid of its own. Fills the
/// sample's op count, wall time, throughput and latency percentiles.
template <typename Op>
Sample drive(int threads, double window_s, const core::WavefrontSpec& spec, const Op& op) {
  std::vector<std::vector<double>> lat_us(static_cast<std::size_t>(threads));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(window_s));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto& lat = lat_us[static_cast<std::size_t>(t)];
      core::Grid grid(spec.dim, spec.elem_bytes);
      for (std::uint64_t i = 0;; ++i) {
        const auto op0 = Clock::now();
        if (op0 >= deadline) break;
        op(t, i, grid);
        lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() - op0).count());
      }
    });
  }
  for (auto& c : clients) c.join();
  Sample s;
  s.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> merged;
  for (auto& v : lat_us) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());
  s.ops = merged.size();
  s.ops_per_s = s.wall_s > 0.0 ? static_cast<double>(s.ops) / s.wall_s : 0.0;
  s.p50_us = sorted_quantile(merged, 0.50);
  s.p95_us = sorted_quantile(merged, 0.95);
  s.p99_us = sorted_quantile(merged, 0.99);
  return s;
}

Sample run_sample(const std::string& workload, int threads, double window_s) {
  api::EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 2;
  o.queue_capacity = 64;
  api::Engine eng(sim::make_i7_2600k(), o);
  const core::WavefrontSpec spec = tiny_spec();

  // Warm the plan cache so measured compiles are pure hits.
  std::vector<api::Plan> plans;
  for (const auto& p : hit_recipes()) plans.push_back(eng.compile(spec, p));
  const api::EngineStats warm = eng.stats();

  Sample s = drive(threads, window_s, spec, [&](int t, std::uint64_t i, core::Grid& grid) {
    const auto& recipe = hit_recipes()[(static_cast<std::size_t>(t) + i) % hit_recipes().size()];
    if (workload == "compile" || (workload == "mixed" && i % 2 == 0)) {
      (void)eng.compile(spec, recipe);
    } else {
      eng.submit(plans[0], grid).get();
    }
  });
  s.stats = eng.stats();
  s.stats.plans_compiled -= warm.plans_compiled;
  s.stats.plan_cache_hits -= warm.plan_cache_hits;
  s.queue = eng.queue_stats();
  return s;
}

/// One --faults window: closed-loop submit round-trips with the injector
/// armed at `rate` on the queue + phase-boundary sites, every job
/// carrying the retry+fallback policy.
Sample run_fault_sample(double rate, int threads, double window_s, std::size_t repeat) {
  fault::InjectionPlan inject;
  inject.seed = 0xBE7C5ULL ^ static_cast<std::uint64_t>(rate * 1e6) ^
                static_cast<std::uint64_t>(threads) ^ (static_cast<std::uint64_t>(repeat) << 32);
  for (const fault::Site s :
       {fault::Site::kQueuePush, fault::Site::kQueuePop, fault::Site::kPhaseBoundary}) {
    inject.at(s).probability = rate;
    inject.at(s).severity = fault::Severity::kTransient;
  }
  // Armed before the Engine exists, disarmed after it is gone: thread
  // creation/join orders the injector state for every worker.
  fault::ScopedInjection arm(inject);

  api::EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 2;
  o.queue_capacity = 64;
  o.retry_backoff_base = std::chrono::microseconds(10);
  o.retry_backoff_max = std::chrono::milliseconds(1);
  api::Engine eng(sim::make_i7_2600k(), o);
  const core::WavefrontSpec spec = tiny_spec();
  const api::Plan plan = eng.compile(spec, hit_recipes()[0]);

  api::SubmitOptions policy;
  policy.max_retries = 4;
  policy.allow_fallback = true;

  Sample s = drive(threads, window_s, spec, [&](int, std::uint64_t, core::Grid& grid) {
    try {
      eng.submit(plan, grid, policy).future.get();
    } catch (const fault::InjectedError&) {
      // Budget exhausted on this op — counted via jobs_failed below.
    }
  });
  s.stats = eng.stats();
  s.queue = eng.queue_stats();
  return s;
}

util::Json to_json(const Cell& c) {
  util::JsonObject o;
  o["workload"] = c.workload;
  o["threads"] = c.threads;
  if (c.fault_rate >= 0.0) o["fault_rate"] = c.fault_rate;
  o["window_s"] = c.window_s;
  o["repeats"] = c.runs.size();
  const Sample& m = c.median_run();
  o["ops"] = m.ops;
  o["ops_per_sec"] = c.median(&Sample::ops_per_s);
  o["ops_per_sec_iqr"] = c.iqr(&Sample::ops_per_s);
  util::JsonArray per_run;
  for (const double v : c.field(&Sample::ops_per_s)) per_run.push_back(v);
  o["ops_per_sec_runs"] = util::Json(std::move(per_run));
  o["p50_us"] = c.median(&Sample::p50_us);
  o["p50_us_iqr"] = c.iqr(&Sample::p50_us);
  o["p95_us"] = c.median(&Sample::p95_us);
  o["p99_us"] = c.median(&Sample::p99_us);
  o["p99_us_iqr"] = c.iqr(&Sample::p99_us);
  util::JsonObject stats;
  stats["plans_compiled"] = m.stats.plans_compiled;
  stats["plan_cache_hits"] = m.stats.plan_cache_hits;
  stats["plan_cache_evictions"] = m.stats.plan_cache_evictions;
  stats["jobs_submitted"] = m.stats.jobs_submitted;
  stats["jobs_completed"] = m.stats.jobs_completed;
  stats["jobs_failed"] = m.stats.jobs_failed;
  stats["jobs_retried"] = m.stats.jobs_retried;
  stats["jobs_degraded"] = m.stats.jobs_degraded;
  stats["jobs_timed_out"] = m.stats.jobs_timed_out;
  stats["jobs_cancelled"] = m.stats.jobs_cancelled;
  o["engine"] = util::Json(std::move(stats));
  util::JsonObject q;
  q["pushes"] = m.queue.pushes;
  q["pops"] = m.queue.pops;
  q["push_fallovers"] = m.queue.push_fallovers;
  q["pop_steals"] = m.queue.pop_steals;
  q["push_blocks"] = m.queue.push_blocks;
  q["pop_blocks"] = m.queue.pop_blocks;
  o["queue"] = util::Json(std::move(q));
  return util::Json(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli = util::Cli::parse_or_exit(
      argc, argv, {"quick", "json", "threads", "faults"});
  const bool quick = cli.get_bool_or("quick", false);
  const bool faults = cli.get_bool_or("faults", false);
  const std::string json_path =
      cli.get_or("json", faults ? "BENCH_serving_faults.json" : "BENCH_serving.json");

  std::vector<int> threads;
  if (const auto csv = cli.get("threads")) {
    std::string tok;
    for (const char ch : *csv + ",") {
      if (ch == ',') {
        if (!tok.empty()) threads.push_back(std::stoi(tok));
        tok.clear();
      } else {
        tok.push_back(ch);
      }
    }
  } else {
    threads = quick ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};
  }

  const double window_s = quick ? 0.1 : 0.5;
  const auto measure = [&](Cell cell, const auto& sample) {
    cell.window_s = window_s;
    for (std::size_t r = 0; r < kRepeats; ++r) cell.runs.push_back(sample(r));
    return cell;
  };

  if (faults) {
    const std::vector<double> rates = {0.0, 0.001, 0.01, 0.05};
    util::Table table({"fault rate", "threads", "ops/s", "ops/s IQR", "p50us", "p99us",
                       "retried", "degraded", "failed"});
    util::JsonArray arr;
    for (const double rate : rates) {
      for (const int t : threads) {
        Cell c;
        c.workload = "submit";
        c.threads = t;
        c.fault_rate = rate;
        c = measure(c, [&](std::size_t r) { return run_fault_sample(rate, t, window_s, r); });
        const Sample& m = c.median_run();
        table.row()
            .add(rate, 3)
            .add(t)
            .add(c.median(&Sample::ops_per_s), 0)
            .add(c.iqr(&Sample::ops_per_s), 0)
            .add(c.median(&Sample::p50_us), 1)
            .add(c.median(&Sample::p99_us), 1)
            .add(m.stats.jobs_retried)
            .add(m.stats.jobs_degraded)
            .add(m.stats.jobs_failed)
            .done();
        arr.push_back(to_json(c));
      }
    }
    std::printf(
        "Serving throughput under injected transient faults (retry+fallback policy),\n"
        "median of %zu windows of %.1f s (counters: the median-throughput window)\n%s",
        kRepeats, window_s, table.to_aligned().c_str());
    util::JsonObject root;
    root["bench"] = "bench_serving";
    root["faults"] = true;
    root["quick"] = quick;
    root["cells"] = util::Json(std::move(arr));
    std::ofstream out(json_path);
    out << util::Json(std::move(root)).dump(2) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
  }

  util::Table table({"workload", "threads", "ops/s", "ops/s IQR", "p50us", "p50 IQR", "p95us",
                     "p99us", "p99 IQR"});
  util::JsonArray arr;
  for (const std::string workload : {"submit", "compile", "mixed"}) {
    for (const int t : threads) {
      Cell c;
      c.workload = workload;
      c.threads = t;
      c = measure(c, [&](std::size_t) { return run_sample(workload, t, window_s); });
      table.row()
          .add(workload)
          .add(t)
          .add(c.median(&Sample::ops_per_s), 0)
          .add(c.iqr(&Sample::ops_per_s), 0)
          .add(c.median(&Sample::p50_us), 1)
          .add(c.iqr(&Sample::p50_us), 1)
          .add(c.median(&Sample::p95_us), 1)
          .add(c.median(&Sample::p99_us), 1)
          .add(c.iqr(&Sample::p99_us), 1)
          .done();
      arr.push_back(to_json(c));
    }
  }
  std::printf(
      "Serving throughput: sharded lock-free submission path,\n"
      "median of %zu windows of %.1f s per cell\n%s",
      kRepeats, window_s, table.to_aligned().c_str());

  util::JsonObject root;
  root["bench"] = "bench_serving";
  root["quick"] = quick;
  root["window_s"] = window_s;
  root["repeats"] = kRepeats;
  root["hardware_concurrency"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  root["cells"] = util::Json(std::move(arr));
  std::ofstream out(json_path);
  out << util::Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
