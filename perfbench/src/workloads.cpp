#include "workloads.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "apps/editdist.hpp"
#include "apps/nash.hpp"
#include "apps/seqcmp.hpp"
#include "apps/synthetic.hpp"
#include "core/diag.hpp"
#include "core/streaming.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace wavetune;

void Totals::add(const core::RunResult& r, std::size_t dim, double serial_sim) {
  cells += static_cast<double>(dim) * static_cast<double>(dim);
  sim_ns += r.rtime_ns;
  serial_sim_ns += serial_sim;
  for (const core::PhaseTiming& t : r.breakdown.phases) {
    const auto phase_cells =
        static_cast<double>(core::cells_in_diag_range(dim, t.d_begin, t.d_end));
    if (t.device == core::PhaseDevice::kCpu) {
      cpu_wall_ns += t.wall_ns;
      cpu_sim_ns += t.ns;
      cpu_cells += phase_cells;
      continue;
    }
    gpu_wall_ns += t.wall_ns;
    gpu_sim_ns += t.ns;
    gpu_cells += phase_cells;
    kernel_launches += static_cast<double>(t.kernel_launches);
    transfer_sim_ns += t.transfer_in_ns + t.transfer_out_ns;
    if (t.strips > 0) {
      streamed_ns += t.ns;
      streamed_serialized_ns += t.serialized_ns;
    }
  }
}

void Totals::merge(const Totals& o) {
  cells += o.cells;
  sim_ns += o.sim_ns;
  serial_sim_ns += o.serial_sim_ns;
  cpu_wall_ns += o.cpu_wall_ns;
  gpu_wall_ns += o.gpu_wall_ns;
  cpu_sim_ns += o.cpu_sim_ns;
  gpu_sim_ns += o.gpu_sim_ns;
  cpu_cells += o.cpu_cells;
  gpu_cells += o.gpu_cells;
  kernel_launches += o.kernel_launches;
  transfer_sim_ns += o.transfer_sim_ns;
  streamed_ns += o.streamed_ns;
  streamed_serialized_ns += o.streamed_serialized_ns;
}

namespace {

Clock::time_point after(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// CPU time of the calling thread.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Independent sub-seed `salt` of the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  return util::splitmix64(s);
}

/// A spec with its reference answers, computed once in set-up: the app's
/// own independent reference (`app_ok`) and, for grids small enough to hash
/// on every job, the digest of a serial-backend run.
struct Checked {
  core::WavefrontSpec spec;
  double serial_sim_ns = 0.0;
  std::function<bool(const core::Grid&)> app_ok;
  bool has_digest = false;
  std::uint64_t digest = 0;

  bool matches(const core::Grid& g) const {
    return app_ok(g) && (!has_digest || perfbench::digest(g.data(), g.size_bytes()) == digest);
  }
};

Checked make_checked(api::Engine& engine, core::WavefrontSpec spec,
                     std::function<bool(const core::Grid&)> app_ok, bool with_digest) {
  Checked c;
  c.spec = std::move(spec);
  c.serial_sim_ns = engine.estimate_serial({c.spec.dim, c.spec.tsize, c.spec.dsize});
  c.app_ok = std::move(app_ok);
  if (with_digest) {
    core::Grid g(c.spec.dim, c.spec.elem_bytes);
    engine.executor().run_serial(c.spec, g);
    if (!c.app_ok(g)) throw std::runtime_error("serial backend disagrees with the app reference");
    c.has_digest = true;
    c.digest = perfbench::digest(g.data(), g.size_bytes());
  }
  return c;
}

std::function<bool(const core::Grid&)> seqcmp_check(const apps::SeqCmpParams& p) {
  const std::int32_t expect = apps::smith_waterman_reference(p);
  return [expect](const core::Grid& g) { return apps::seqcmp_best_score(g) == expect; };
}

std::function<bool(const core::Grid&)> editdist_check(const apps::EditDistParams& p) {
  const std::int32_t expect = apps::edit_distance_reference(p);
  return [expect](const core::Grid& g) { return apps::editdist_result(g) == expect; };
}

/// Lattice-path counts and diagonal indices at the corners and centre.
bool synthetic_ok(const core::Grid& g) {
  const std::size_t n = g.dim() - 1;
  const std::pair<std::size_t, std::size_t> cells[] = {{0, n}, {n, 0}, {n / 2, n / 3}, {n, n}};
  for (const auto& [i, j] : cells) {
    const apps::SyntheticHeader h = apps::synthetic_header(g, i, j);
    if (h.paths != apps::synthetic_expected_paths(i, j) || h.steps != i + j + 1) return false;
  }
  return true;
}

bool no_app_reference(const core::Grid&) { return true; }

/// Adds one finished run of a plan to the job's sample and totals.
void record_run(JobSample& s, Totals& t, const core::RunResult& r, const Checked& c) {
  s.exec_ms += static_cast<float>(r.wall_ns * 1e-6);
  t.add(r, c.spec.dim, c.serial_sim_ns);
}

/// One closed-loop job: submit, wait, time, check. A job that throws or
/// whose output mismatches marks the sample; an ok sample stays ok only
/// while every run in it is.
void run_checked(api::Engine& engine, const api::Plan& plan, core::Grid& grid, const Checked& c,
                 bool traced, Clock::time_point start, JobSample& s, Totals& t) {
  try {
    const auto t0 = Clock::now();
    auto future = engine.submit(plan, grid);
    if (traced) s.submit_us += static_cast<float>(seconds_since(t0) * 1e6);
    const core::RunResult r = future.get();
    s.latency_ms += static_cast<float>(seconds_since(t0) * 1e3);
    s.done_s = static_cast<float>(seconds_since(start));
    record_run(s, t, r, c);
    if (!c.matches(grid) && s.outcome == Outcome::kOk) s.outcome = Outcome::kWrong;
  } catch (const std::exception&) {
    s.outcome = Outcome::kFailed;
    s.done_s = static_cast<float>(seconds_since(start));
  }
}

// ---------------------------------------------------------------- align_cpu

/// Smith-Waterman and edit distance at one large dim, alternated by one
/// closed-loop client with one job in flight. Both plans are autotuned on
/// the "cpu-auto" backend, whose cost model picks the dataflow scheduler
/// here. (The default "hybrid" backend's all-CPU plan runs the barrier
/// scheduler, which is about 4x slower on this instance and swings 2x
/// from run to run with the host's thread wake-up latency.)
class AlignCpu final : public Workload {
public:
  static constexpr std::size_t kDim = 4096;

  void prepare(api::Engine& engine, std::uint64_t seed) override {
    apps::SeqCmpParams sw;
    sw.seq_a = apps::random_dna(kDim, derive(seed, 1));
    sw.seq_b = apps::random_dna(kDim, derive(seed, 2));
    apps::EditDistParams ed;
    ed.str_a = apps::random_dna(kDim, derive(seed, 3));
    ed.str_b = apps::random_dna(kDim, derive(seed, 4));
    // No per-job digest: hashing a 128 MiB grid would cost a third of a
    // job. The reference checks read the final cell, whose value depends
    // on every cell, and the final cell is poisoned before each job.
    add(engine, make_checked(engine, apps::make_seqcmp_spec(sw), seqcmp_check(sw), false));
    add(engine, make_checked(engine, apps::make_editdist_spec(ed), editdist_check(ed), false));
  }

  void drive(api::Engine& engine, double seconds, bool traced, Tally& out) override {
    const auto start = Clock::now();
    const auto deadline = after(start, seconds);
    while (Clock::now() < deadline) {
      App& a = apps_[next_++ % apps_.size()];
      std::memset(a.grid->cell(kDim - 1, kDim - 1), static_cast<int>(core::Grid::kPoison),
                  a.grid->elem_bytes());
      JobSample s;
      Totals t;
      run_checked(engine, a.plan, *a.grid, a.ref, traced, start, s, t);
      out.add(s, t);
    }
  }

  const core::WavefrontSpec& probe_spec() const override { return apps_.front().ref.spec; }

private:
  struct App {
    Checked ref;
    api::Plan plan;
    std::unique_ptr<core::Grid> grid;
  };

  void add(api::Engine& engine, Checked ref) {
    App a;
    api::CompileOptions options;
    options.backend = api::kCpuAutoBackend;
    a.plan = engine.compile(ref.spec, options);
    a.grid = std::make_unique<core::Grid>(ref.spec.dim, ref.spec.elem_bytes);
    a.ref = std::move(ref);
    apps_.push_back(std::move(a));
  }

  std::vector<App> apps_;
  std::size_t next_ = 0;
};

// --------------------------------------------------------------- hybrid_gpu

/// Coarse synthetic at a mid dim. One closed-loop client rotates three
/// programs over one grid: the tuned dual-GPU paper program, an explicit
/// single-GPU whole-grid program, and the same program under a residency
/// cap, streamed as strips over a 2-buffer pool. A job is one rotation.
class HybridGpu final : public Workload {
public:
  static constexpr std::size_t kDim = 512;
  static constexpr double kTsize = 3000.0;
  static constexpr int kDsize = 1;
  /// Functional mixing iterations per cell (the simulated cost follows
  /// kTsize regardless); sized so a rotation takes about 90 ms on the
  /// 4-vCPU reference VM.
  static constexpr std::size_t kIters = 16;

  void prepare(api::Engine& engine, std::uint64_t seed) override {
    apps::SyntheticParams p;
    p.dim = kDim;
    p.tsize = kTsize;
    p.dsize = kDsize;
    p.functional_iters = kIters;
    p.seed = derive(seed, 1);
    ref_ = make_checked(engine, apps::make_synthetic_spec(p), synthetic_ok, true);

    plans_.push_back(engine.compile(ref_.spec));
    if (!plans_.front().params().dual_gpu()) {
      std::fprintf(stderr, "warning: hybrid_gpu's tuned plan is not dual-GPU: %s\n",
                   plans_.front().program().describe().c_str());
    }
    api::CompileOptions single;
    single.params = core::TunableParams{4, static_cast<long long>(kDim) - 1, -1, 8};
    plans_.push_back(engine.compile(ref_.spec, single));
    api::CompileOptions streamed = single;
    streamed.max_resident_bytes = core::whole_grid_resident_bytes(kDim, ref_.spec.elem_bytes) / 4;
    streamed.strip_buffers = 2;
    plans_.push_back(engine.compile(ref_.spec, streamed));
    grid_ = std::make_unique<core::Grid>(kDim, ref_.spec.elem_bytes);
  }

  void drive(api::Engine& engine, double seconds, bool traced, Tally& out) override {
    const auto start = Clock::now();
    const auto deadline = after(start, seconds);
    while (Clock::now() < deadline) {
      JobSample s;
      Totals t;
      for (const api::Plan& plan : plans_) {
        grid_->fill_poison();
        run_checked(engine, plan, *grid_, ref_, traced, start, s, t);
      }
      out.add(s, t);
    }
  }

  const core::WavefrontSpec& probe_spec() const override { return ref_.spec; }

private:
  Checked ref_;
  std::vector<api::Plan> plans_;
  std::unique_ptr<core::Grid> grid_;
};

// -------------------------------------------------------------- serve_burst

/// Tiny same-plan synthetic jobs sent as submit_batch bursts of 8 by two
/// closed-loop clients, so queueing, batch formation and promise
/// resolution outweigh the microseconds of kernel work.
class ServeBurst final : public Workload {
public:
  static constexpr std::size_t kDim = 48;
  static constexpr std::size_t kBurst = 8;
  static constexpr std::size_t kClients = 2;

  void prepare(api::Engine& engine, std::uint64_t seed) override {
    apps::SyntheticParams p;
    p.dim = kDim;
    p.tsize = 10.0;
    p.dsize = 1;
    p.seed = derive(seed, 1);
    ref_ = make_checked(engine, apps::make_synthetic_spec(p), synthetic_ok, true);
    plan_ = engine.compile(ref_.spec);
    grids_.resize(kClients);
    for (auto& client : grids_) {
      for (std::size_t k = 0; k < kBurst; ++k) {
        client.push_back(std::make_unique<core::Grid>(kDim, ref_.spec.elem_bytes));
      }
    }
  }

  void drive(api::Engine& engine, double seconds, bool traced, Tally& out) override {
    const auto start = Clock::now();
    const auto deadline = after(start, seconds);
    std::mutex out_mutex;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        client_loop(engine, start, deadline, traced, grids_[c], out_mutex, out);
      });
    }
    for (std::thread& t : clients) t.join();
  }

  const core::WavefrontSpec& probe_spec() const override { return ref_.spec; }

private:
  void client_loop(api::Engine& engine, Clock::time_point start, Clock::time_point deadline,
                   bool traced, const std::vector<std::unique_ptr<core::Grid>>& grids,
                   std::mutex& out_mutex, Tally& out) const {
    std::vector<core::Grid*> burst;
    for (const auto& g : grids) burst.push_back(g.get());
    while (Clock::now() < deadline) {
      for (core::Grid* g : burst) g->fill_poison();
      std::vector<JobSample> samples(burst.size());
      std::vector<Totals> totals(burst.size());
      try {
        const auto t0 = Clock::now();
        auto futures = engine.submit_batch(plan_, burst);
        const double submit_us = seconds_since(t0) * 1e6 / static_cast<double>(burst.size());
        for (std::size_t k = 0; k < futures.size(); ++k) {
          JobSample& s = samples[k];
          if (traced) s.submit_us = static_cast<float>(submit_us);
          try {
            const core::RunResult r = futures[k].get();
            s.latency_ms = static_cast<float>(seconds_since(t0) * 1e3);
            record_run(s, totals[k], r, ref_);
            if (!ref_.matches(*burst[k])) s.outcome = Outcome::kWrong;
          } catch (const std::exception&) {
            s.outcome = Outcome::kFailed;
          }
        }
      } catch (const std::exception&) {
        for (JobSample& s : samples) s.outcome = Outcome::kFailed;
      }
      const auto done_s = static_cast<float>(seconds_since(start));
      std::lock_guard<std::mutex> lock(out_mutex);
      for (std::size_t k = 0; k < samples.size(); ++k) {
        samples[k].done_s = done_s;
        out.add(samples[k], totals[k]);
      }
    }
  }

  Checked ref_;
  api::Plan plan_;
  std::vector<std::vector<std::unique_ptr<core::Grid>>> grids_;
};

// -------------------------------------------------------------- serve_mixed

/// Open-loop arrivals at a fixed rate over small jobs of all four apps at
/// two dims each. Every request compiles, then submits; a fixed share
/// carries a first-seen spec that misses the plan cache and runs the
/// autotuner's prediction. Latency runs from each request's due time.
///
/// The generator busy-waits for due times and completions instead of
/// sleeping: a sleeping thread on the reference VM wakes up to ~6 ms late
/// at p99, which would charge the host's wake-up latency to every request
/// twice. The CPU burnt waiting is tallied as idle and left out of
/// cpu_ms_per_job; compiling, submitting and checking are not.
class ServeMixed final : public Workload {
public:
  /// Offered load, fixed here and never derived from measured capacity:
  /// about a tenth of what the two queue workers can serve on 4 cores.
  static constexpr double kRatePerS = 400.0;
  static constexpr double kFreshShare = 0.05;
  static constexpr std::uint32_t kKinds = 8;  ///< 4 apps x 2 dims
  static constexpr std::size_t kGridsPerKind = 4;

  explicit ServeMixed(double horizon_s) : horizon_s_(horizon_s) {}

  void prepare(api::Engine& engine, std::uint64_t seed) override {
    // One second of slack past the horizon: drive() re-anchors each phase
    // on its first arrival, so phases may reach slightly past it.
    schedule_ = make_schedule(derive(seed, 1), kRatePerS, horizon_s_ + 1.0, kKinds, kFreshShare);
    for (std::uint32_t kind = 0; kind < kKinds; ++kind) {
      specs_.push_back(make_kind(engine, kind, derive(seed, 100 + kind)));
      engine.compile(specs_.back().spec);
    }
    spec_of_.reserve(schedule_.size());
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const Arrival& a = schedule_[i];
      if (!a.fresh) {
        spec_of_.push_back(a.kind);
        continue;
      }
      spec_of_.push_back(specs_.size());
      specs_.push_back(make_kind(engine, a.kind, derive(seed, 1000 + i)));
    }
    free_.resize(kKinds);
    for (std::uint32_t kind = 0; kind < kKinds; ++kind) {
      for (std::size_t k = 0; k < kGridsPerKind; ++k) free_[kind].push_back(new_grid(kind));
    }
  }

  void drive(api::Engine& engine, double seconds, bool traced, Tally& out) override {
    const auto start = Clock::now();
    const double cpu0 = thread_cpu_s();
    work_cpu_s_ = 0.0;
    const double origin = cursor_ < schedule_.size() ? schedule_[cursor_].due_s : 0.0;
    std::vector<Pending> pending;
    for (; cursor_ < schedule_.size(); ++cursor_) {
      const Arrival& a = schedule_[cursor_];
      const double due = a.due_s - origin;
      if (due >= seconds) break;
      const auto due_at = after(start, due);
      while (Clock::now() < due_at) sweep(start, pending, out);

      const double work0 = thread_cpu_s();
      Pending p;
      p.kind = a.kind;
      p.spec = spec_of_[cursor_];
      p.timing.due_s = due;
      p.timing.sent_s = seconds_since(start);
      JobSample s;
      try {
        const api::Plan plan = engine.compile(specs_[p.spec].spec);
        p.grid = take_grid(a.kind);
        p.grid->fill_poison();
        const auto t0 = Clock::now();
        auto future = engine.try_submit(plan, *p.grid);
        if (traced) p.submit_us = static_cast<float>(seconds_since(t0) * 1e6);
        if (future) {
          p.future = std::move(*future);
          pending.push_back(std::move(p));
          work_cpu_s_ += thread_cpu_s() - work0;
          continue;
        }
        s.outcome = Outcome::kRefused;
      } catch (const std::exception&) {
        s.outcome = Outcome::kFailed;
      }
      if (p.grid) free_[p.kind].push_back(std::move(p.grid));
      s.late_ms = static_cast<float>(p.timing.late_ms());
      s.done_s = static_cast<float>(p.timing.sent_s);
      out.add(s, {});
      work_cpu_s_ += thread_cpu_s() - work0;
    }
    while (!pending.empty()) sweep(start, pending, out);
    out.idle_cpu_s += thread_cpu_s() - cpu0 - work_cpu_s_;
  }

  const core::WavefrontSpec& probe_spec() const override { return specs_.front().spec; }

private:
  struct Pending {
    std::future<core::RunResult> future;
    std::uint32_t kind = 0;
    std::size_t spec = 0;
    std::unique_ptr<core::Grid> grid;
    OpenLoopTiming timing;
    float submit_us = 0.0f;
  };

  /// Kind k is app k/2 at the app's (k%2)-th dim; `content_seed` makes the
  /// payload (sequences, synthetic source term, payoffs) and so the
  /// plan-cache identity.
  static Checked make_kind(api::Engine& engine, std::uint32_t kind, std::uint64_t content_seed) {
    const bool big = kind % 2 == 1;
    switch (kind / 2) {
      case 0: {
        apps::SyntheticParams p;
        p.dim = big ? 96 : 48;
        p.tsize = 20.0;
        p.dsize = 1;
        p.seed = content_seed;
        return make_checked(engine, apps::make_synthetic_spec(p), synthetic_ok, true);
      }
      case 1: {
        const std::size_t dim = big ? 384 : 192;
        apps::SeqCmpParams p;
        p.seq_a = apps::random_dna(dim, derive(content_seed, 1));
        p.seq_b = apps::random_dna(dim, derive(content_seed, 2));
        return make_checked(engine, apps::make_seqcmp_spec(p), seqcmp_check(p), true);
      }
      case 2: {
        const std::size_t dim = big ? 384 : 192;
        apps::EditDistParams p;
        p.str_a = apps::random_dna(dim, derive(content_seed, 1));
        p.str_b = apps::random_dna(dim, derive(content_seed, 2));
        return make_checked(engine, apps::make_editdist_spec(p), editdist_check(p), true);
      }
      default: {
        apps::NashParams p;
        p.dim = big ? 24 : 12;
        p.seed = content_seed;
        return make_checked(engine, apps::make_nash_spec(p), no_app_reference, true);
      }
    }
  }

  std::unique_ptr<core::Grid> new_grid(std::uint32_t kind) const {
    const core::WavefrontSpec& spec = specs_[kind].spec;
    return std::make_unique<core::Grid>(spec.dim, spec.elem_bytes);
  }

  /// A free grid of the kind's shape; grows the pool only when every grid
  /// of that shape is in flight.
  std::unique_ptr<core::Grid> take_grid(std::uint32_t kind) {
    auto& pool = free_[kind];
    if (pool.empty()) return new_grid(kind);
    std::unique_ptr<core::Grid> g = std::move(pool.back());
    pool.pop_back();
    return g;
  }

  /// Collects every finished job: completion time, check, grid returned.
  void sweep(Clock::time_point start, std::vector<Pending>& pending, Tally& out) {
    for (std::size_t i = pending.size(); i-- > 0;) {
      Pending& p = pending[i];
      if (p.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
      p.timing.done_s = seconds_since(start);
      const double work0 = thread_cpu_s();
      JobSample s;
      Totals t;
      s.latency_ms = static_cast<float>(p.timing.latency_ms());
      s.late_ms = static_cast<float>(p.timing.late_ms());
      s.submit_us = p.submit_us;
      s.done_s = static_cast<float>(p.timing.done_s);
      try {
        const core::RunResult r = p.future.get();
        record_run(s, t, r, specs_[p.spec]);
        if (!specs_[p.spec].matches(*p.grid)) s.outcome = Outcome::kWrong;
      } catch (const std::exception&) {
        s.outcome = Outcome::kFailed;
      }
      out.add(s, t);
      free_[p.kind].push_back(std::move(p.grid));
      pending[i] = std::move(pending.back());
      pending.pop_back();
      work_cpu_s_ += thread_cpu_s() - work0;
    }
  }

  double horizon_s_;
  std::vector<Arrival> schedule_;
  std::size_t cursor_ = 0;
  std::vector<Checked> specs_;         ///< kKinds base specs, then one per fresh arrival
  std::vector<std::size_t> spec_of_;   ///< per arrival: index into specs_
  std::vector<std::vector<std::unique_ptr<core::Grid>>> free_;  ///< per kind
  double work_cpu_s_ = 0.0;  ///< generator CPU spent on requests during drive()
};

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> all = {
      {"align_cpu", {1, 2, 1}, 300.0, false,
       [](double) -> std::unique_ptr<Workload> { return std::make_unique<AlignCpu>(); }},
      {"hybrid_gpu", {1, 2, 1}, 300.0, false,
       [](double) -> std::unique_ptr<Workload> { return std::make_unique<HybridGpu>(); }},
      {"serve_burst", {ServeBurst::kClients, 1, 1}, 25.0, false,
       [](double) -> std::unique_ptr<Workload> { return std::make_unique<ServeBurst>(); }},
      {"serve_mixed", {1, 1, 2}, 50.0, true,
       [](double horizon_s) -> std::unique_ptr<Workload> {
         return std::make_unique<ServeMixed>(horizon_s);
       }},
  };
  return all;
}

}  // namespace perfbench
