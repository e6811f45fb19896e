// The benchmark's four workloads, each driving one api::Engine from the
// benchmark's own client threads. See README.md for why each exists.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/executor.hpp"
#include "core/spec.hpp"
#include "measure.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What runs of plans did, summed: per window over its ok jobs, and per
/// job over its runs.
struct Totals {
  double cells = 0.0;
  double sim_ns = 0.0;         ///< simulated time of the executed plans
  double serial_sim_ns = 0.0;  ///< simulated serial baseline of the same inputs
  double cpu_wall_ns = 0.0;
  double gpu_wall_ns = 0.0;
  double cpu_sim_ns = 0.0;
  double gpu_sim_ns = 0.0;
  double cpu_cells = 0.0;
  double gpu_cells = 0.0;
  double kernel_launches = 0.0;
  double transfer_sim_ns = 0.0;         ///< simulated PCIe in + out
  double streamed_ns = 0.0;             ///< streamed GPU phases, overlapped schedule
  double streamed_serialized_ns = 0.0;  ///< same strips on a 1-buffer pool

  /// Adds one run of a dim x dim plan whose serial baseline simulates to
  /// `serial_sim`.
  void add(const wavetune::core::RunResult& r, std::size_t dim, double serial_sim);
  void merge(const Totals& other);
};

/// One measured job, kept compact: serve_burst records over 100k a run,
/// and the samples must not move peak_rss_mb. On hybrid_gpu a job is one
/// rotation of three runs, so its latency never sits between the three
/// programs' modes.
struct JobSample {
  Outcome outcome = Outcome::kOk;
  float latency_ms = 0.0f;
  float exec_ms = 0.0f;    ///< sum of RunResult::wall_ns
  float submit_us = 0.0f;  ///< traced runs: this job's share of submit time
  float late_ms = 0.0f;    ///< open loop only: how late the request was sent
  float done_s = 0.0f;     ///< when it finished, in seconds since drive() began
};

/// Every job of a window plus the totals of its ok ones.
struct Tally {
  std::deque<JobSample> jobs;  ///< a deque grows without copying, so RSS tracks the count
  Totals ok;
  /// CPU the open-loop generator burnt busy-waiting for due times and
  /// completions; cpu_ms_per_job leaves it out.
  double idle_cpu_s = 0.0;

  void add(const JobSample& s, const Totals& t) {
    jobs.push_back(s);
    if (s.outcome == Outcome::kOk) ok.merge(t);
  }
};

/// Threads a workload runs: its own client threads plus the Engine's.
struct ThreadBudget {
  std::size_t clients = 1;
  std::size_t pool_workers = 1;
  std::size_t queue_workers = 1;
  std::size_t total() const { return clients + pool_workers + queue_workers; }
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Specs, plan compiles, grids and reference answers: the workload's
  /// share of set-up. Single-threaded and deterministic in `seed`.
  virtual void prepare(wavetune::api::Engine& engine, std::uint64_t seed) = 0;

  /// Sends the workload's traffic for `seconds` and adds every job it
  /// started to `out` (a job started before the deadline is waited for).
  /// `traced` adds the per-call timers of the traced run.
  virtual void drive(wavetune::api::Engine& engine, double seconds, bool traced,
                     Tally& out) = 0;

  /// The spec the traced run's compile and CPU-scaling probes use.
  virtual const wavetune::core::WavefrontSpec& probe_spec() const = 0;
};

struct WorkloadInfo {
  std::string name;
  ThreadBudget budget;
  double slo_ms = 0.0;    ///< fixed latency limit of slo_share
  bool open_loop = false;
  /// `horizon_s` is how long the workload will be driven in total
  /// (warm-up included); the open loop generates its schedule that far.
  std::unique_ptr<Workload> (*make)(double horizon_s) = nullptr;
};

/// The four workloads. BENCHMARK.json lists the first three; serve_mixed
/// runs by name (README.md says why it is left out).
const std::vector<WorkloadInfo>& workloads();

/// serve_mixed is invalid when its generator's p99 lateness exceeds this
/// share of the latency limit: the load was not offered as scheduled. The
/// generator busy-waits, so its lateness is time the host took its vCPU
/// away, which on the 4-vCPU reference VM reaches several ms.
inline constexpr double kMaxLateShareOfSlo = 0.5;

}  // namespace perfbench
