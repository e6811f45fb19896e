// Serving-throughput harness: N closed-loop client threads hammer one
// api::Engine through its sharded lock-free submission path.
//
// Workloads (per client thread, closed loop):
//   submit   submit() + future.get() round-trips of one tiny plan — the
//            job-queue hot path (one pop, one run per job);
//   compile  plan-cache HIT compiles — the lock-free snapshot read;
//   mixed    alternating cache-hit compiles and submit round-trips.
//
// Emits an aligned table plus a JSON report (ops/sec, p50/p95/p99 client
// latency, engine + queue contention counters):
//
//   bench_serving [--quick] [--json=BENCH_serving.json]
//                 [--threads=1,2,4,8,16] [--ops=N] [--faults]
//
// --quick shrinks the sweep for CI smoke runs; --ops overrides the
// per-thread op count of every workload (0 keeps the defaults).
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
#include "util/table.hpp"

namespace {

using namespace wavetune;
using Clock = std::chrono::steady_clock;

struct Cell {
  std::string workload;  // "submit" | "compile" | "mixed"
  int threads = 0;
  double fault_rate = -1.0;  // --faults: injected rate of the cell; < 0 otherwise
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  api::EngineStats stats;
  api::ShardedQueueStats queue;
};

core::WavefrontSpec tiny_spec() {
  apps::SyntheticParams p;
  p.dim = 16;
  p.tsize = 8.0;
  p.dsize = 1;
  p.functional_iters = 1;
  return apps::make_synthetic_spec(p);
}

double percentile(std::vector<double>& sorted_us, double q) {
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

/// Fills the cell's throughput and latency fields from the per-client
/// latency samples of a run that took `wall` seconds.
void summarize(Cell& cell, std::vector<std::vector<double>>& lat_us, double wall) {
  cell.wall_s = wall;
  cell.ops_per_s = wall > 0.0 ? static_cast<double>(cell.ops) / wall : 0.0;
  std::vector<double> merged;
  for (auto& v : lat_us) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());
  cell.p50_us = percentile(merged, 0.50);
  cell.p95_us = percentile(merged, 0.95);
  cell.p99_us = percentile(merged, 0.99);
}

Cell run_cell(const std::string& workload, int threads, std::uint64_t ops_per_thread) {
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

  std::vector<std::vector<double>> lat_us(static_cast<std::size_t>(threads));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto& lat = lat_us[static_cast<std::size_t>(t)];
      lat.reserve(ops_per_thread);
      core::Grid grid(spec.dim, spec.elem_bytes);
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const auto& recipe =
            hit_recipes()[(static_cast<std::size_t>(t) + i) % hit_recipes().size()];
        const auto op0 = Clock::now();
        if (workload == "compile" || (workload == "mixed" && i % 2 == 0)) {
          (void)eng.compile(spec, recipe);
        } else {
          eng.submit(plans[0], grid).get();
        }
        lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() - op0).count());
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  Cell cell;
  cell.workload = workload;
  cell.threads = threads;
  cell.ops = ops_per_thread * static_cast<std::uint64_t>(threads);
  summarize(cell, lat_us, wall);
  cell.stats = eng.stats();
  cell.stats.plans_compiled -= warm.plans_compiled;
  cell.stats.plan_cache_hits -= warm.plan_cache_hits;
  cell.queue = eng.queue_stats();
  return cell;
}

/// One --faults measurement: closed-loop submit round-trips with the
/// injector armed at `rate` on the queue + phase-boundary sites, every
/// job carrying the retry+fallback policy.
Cell run_fault_cell(double rate, int threads, std::uint64_t ops_per_thread) {
  fault::InjectionPlan inject;
  inject.seed = 0xBE7C5ULL ^ static_cast<std::uint64_t>(rate * 1e6) ^
                static_cast<std::uint64_t>(threads);
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

  std::vector<std::vector<double>> lat_us(static_cast<std::size_t>(threads));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto& lat = lat_us[static_cast<std::size_t>(t)];
      lat.reserve(ops_per_thread);
      core::Grid grid(spec.dim, spec.elem_bytes);
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const auto op0 = Clock::now();
        try {
          eng.submit(plan, grid, policy).future.get();
        } catch (const fault::InjectedError&) {
          // Budget exhausted on this op — counted via jobs_failed below.
        }
        lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() - op0).count());
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  Cell cell;
  cell.workload = "submit";
  cell.threads = threads;
  cell.fault_rate = rate;
  cell.ops = ops_per_thread * static_cast<std::uint64_t>(threads);
  summarize(cell, lat_us, wall);
  cell.stats = eng.stats();
  cell.queue = eng.queue_stats();
  return cell;
}

util::Json to_json(const Cell& c) {
  util::JsonObject o;
  o["workload"] = c.workload;
  o["threads"] = c.threads;
  if (c.fault_rate >= 0.0) o["fault_rate"] = c.fault_rate;
  o["ops"] = c.ops;
  o["wall_s"] = c.wall_s;
  o["ops_per_sec"] = c.ops_per_s;
  o["p50_us"] = c.p50_us;
  o["p95_us"] = c.p95_us;
  o["p99_us"] = c.p99_us;
  util::JsonObject stats;
  stats["plans_compiled"] = c.stats.plans_compiled;
  stats["plan_cache_hits"] = c.stats.plan_cache_hits;
  stats["plan_cache_evictions"] = c.stats.plan_cache_evictions;
  stats["jobs_submitted"] = c.stats.jobs_submitted;
  stats["jobs_completed"] = c.stats.jobs_completed;
  stats["jobs_failed"] = c.stats.jobs_failed;
  stats["jobs_retried"] = c.stats.jobs_retried;
  stats["jobs_degraded"] = c.stats.jobs_degraded;
  stats["jobs_timed_out"] = c.stats.jobs_timed_out;
  stats["jobs_cancelled"] = c.stats.jobs_cancelled;
  o["engine"] = util::Json(std::move(stats));
  util::JsonObject q;
  q["pushes"] = c.queue.pushes;
  q["pops"] = c.queue.pops;
  q["push_fallovers"] = c.queue.push_fallovers;
  q["pop_steals"] = c.queue.pop_steals;
  q["push_blocks"] = c.queue.push_blocks;
  q["pop_blocks"] = c.queue.pop_blocks;
  o["queue"] = util::Json(std::move(q));
  return util::Json(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli = util::Cli::parse_or_exit(
      argc, argv, {"quick", "json", "threads", "ops", "faults"});
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

  const auto ops_override = static_cast<std::uint64_t>(cli.get_int_or("ops", 0));
  const auto ops_for = [&](const std::string& workload) -> std::uint64_t {
    if (ops_override > 0) return ops_override;
    if (workload == "compile") return quick ? 500 : 4000;
    if (workload == "submit") return quick ? 50 : 250;
    return quick ? 80 : 400;  // mixed
  };

  if (faults) {
    const std::uint64_t ops = ops_override > 0 ? ops_override : (quick ? 50 : 250);
    const std::vector<double> rates = {0.0, 0.001, 0.01, 0.05};
    util::Table table({"fault rate", "threads", "ops/s", "p50us", "p99us", "retried",
                       "degraded", "failed"});
    util::JsonArray arr;
    for (const double rate : rates) {
      for (const int t : threads) {
        const Cell c = run_fault_cell(rate, t, ops);
        table.row()
            .add(rate, 3)
            .add(t)
            .add(c.ops_per_s, 0)
            .add(c.p50_us, 1)
            .add(c.p99_us, 1)
            .add(c.stats.jobs_retried)
            .add(c.stats.jobs_degraded)
            .add(c.stats.jobs_failed)
            .done();
        arr.push_back(to_json(c));
      }
    }
    std::printf(
        "Serving throughput under injected transient faults (retry+fallback policy)\n%s",
        table.to_aligned().c_str());
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

  util::Table table({"workload", "threads", "ops/s", "p50us", "p95us", "p99us"});
  util::JsonArray arr;
  for (const std::string workload : {"submit", "compile", "mixed"}) {
    for (const int t : threads) {
      const Cell c = run_cell(workload, t, ops_for(workload));
      table.row()
          .add(workload)
          .add(t)
          .add(c.ops_per_s, 0)
          .add(c.p50_us, 1)
          .add(c.p95_us, 1)
          .add(c.p99_us, 1)
          .done();
      arr.push_back(to_json(c));
    }
  }
  std::printf("Serving throughput: sharded lock-free submission path\n%s",
              table.to_aligned().c_str());

  util::JsonObject root;
  root["bench"] = "bench_serving";
  root["quick"] = quick;
  root["hardware_concurrency"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  root["cells"] = util::Json(std::move(arr));
  std::ofstream out(json_path);
  out << util::Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
