// Serving-scale behavior of the api::Engine submission path: the sharded
// lock-free queue under many producers, RCU-style plan-cache reads racing
// evictions and clear_plan_cache(), per-job promise resolution (one pop,
// one run), try_submit load shedding, failure accounting, and shutdown
// under load.
// Queue mechanics in isolation are covered by test_sharded_queue.cpp;
// here the subject is the Engine wired on top of them.
#include "api/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/run_control.hpp"
#include "fault/injector.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::api {
namespace {

using namespace std::chrono_literals;

core::WavefrontSpec serving_spec(std::size_t dim = 24, double tsize = 10.0, int dsize = 1) {
  apps::SyntheticParams p;
  p.dim = dim;
  p.tsize = tsize;
  p.dsize = dsize;
  p.functional_iters = 2;
  return apps::make_synthetic_spec(p);
}

/// Worker-blocking gate shared by the test backends: a GateBackend run
/// parks its queue worker until the test opens the gate, making queue
/// occupancy deterministic on any machine.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  int arrived = 0;
  void open_all() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
  void reset() {
    std::lock_guard<std::mutex> lock(m);
    open = false;
    arrived = 0;
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  /// Blocks until `n` workers are parked inside run() — the deterministic
  /// "the worker holds a job and cannot pop another" checkpoint.
  void wait_arrived(int n) {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return arrived >= n; });
  }
};

Gate& gate() {
  static Gate g;
  return g;
}

core::RunResult serial_estimate(const core::HybridExecutor& executor, const core::InputParams& in) {
  core::RunResult r;
  core::PhaseTiming t;
  t.d_end = core::num_diagonals(in.dim);
  t.ns = executor.estimate_serial(in);
  r.breakdown.phases.push_back(t);
  r.rtime_ns = r.breakdown.total_ns();
  return r;
}

/// Serial execution that first parks on the gate (above).
class GateBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = "test-gate";
    return n;
  }
  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams&,
                              const sim::SystemProfile&) const override {
    in.validate();
    return core::TunableParams{1, -1, -1, 1};
  }
  core::RunResult run(core::HybridExecutor& executor, const core::WavefrontSpec& spec,
                      const core::PhaseProgram&, const core::LoweredKernel& lowered,
                      core::Grid& grid, const core::RunControl*) const override {
    gate().wait();
    return executor.run_serial(spec, grid, &lowered);
  }
  core::RunResult estimate(const core::HybridExecutor& executor, const core::InputParams& in,
                           const core::PhaseProgram&) const override {
    return serial_estimate(executor, in);
  }
};

/// Always throws from run(): the failure-accounting probe.
class ThrowingBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = "test-throwing";
    return n;
  }
  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams&,
                              const sim::SystemProfile&) const override {
    in.validate();
    return core::TunableParams{1, -1, -1, 1};
  }
  core::RunResult run(core::HybridExecutor&, const core::WavefrontSpec&, const core::PhaseProgram&,
                      const core::LoweredKernel&, core::Grid&,
                      const core::RunControl*) const override {
    throw std::runtime_error("test-throwing backend always fails");
  }
  core::RunResult estimate(const core::HybridExecutor& executor, const core::InputParams& in,
                           const core::PhaseProgram&) const override {
    return serial_estimate(executor, in);
  }
};

/// Parks inside run() until its control token reports a stop, then raises
/// the interruption — the deterministic "an in-flight job observes its
/// stop source at the next phase boundary" probe. Bails out with a plain
/// failure (never a hang) if no stop arrives.
class ControlPollingBackend final : public Backend {
public:
  /// run() entries so far — the "job is now in flight" checkpoint.
  static std::atomic<int>& arrivals() {
    static std::atomic<int> a{0};
    return a;
  }
  const std::string& name() const override {
    static const std::string n = "test-control-polling";
    return n;
  }
  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams&,
                              const sim::SystemProfile&) const override {
    in.validate();
    return core::TunableParams{1, -1, -1, 1};
  }
  core::RunResult run(core::HybridExecutor& executor, const core::WavefrontSpec& spec,
                      const core::PhaseProgram&, const core::LoweredKernel& lowered,
                      core::Grid& grid, const core::RunControl* control) const override {
    arrivals().fetch_add(1);
    if (control != nullptr) {
      for (int spin = 0; spin < 100000; ++spin) {  // <= ~5 s, then bail
        const core::RunControl::Stop stop = control->should_stop();
        if (stop != core::RunControl::Stop::kNone) throw core::ExecutionInterrupted(stop);
        std::this_thread::sleep_for(50us);
      }
      throw std::runtime_error("test-control-polling: no stop arrived");
    }
    return executor.run_serial(spec, grid, &lowered);
  }
  core::RunResult estimate(const core::HybridExecutor& executor, const core::InputParams& in,
                           const core::PhaseProgram&) const override {
    return serial_estimate(executor, in);
  }
};

/// Throws a TRANSIENT fault::InjectedError while its fuse lasts, then
/// runs serially — the retry-budget probe. Reset the fuse per test.
class FlakyBackend final : public Backend {
public:
  /// Remaining run() calls that fail before the backend recovers.
  static std::atomic<int>& fuse() {
    static std::atomic<int> f{0};
    return f;
  }
  const std::string& name() const override {
    static const std::string n = "test-flaky";
    return n;
  }
  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams&,
                              const sim::SystemProfile&) const override {
    in.validate();
    return core::TunableParams{1, -1, -1, 1};
  }
  core::RunResult run(core::HybridExecutor& executor, const core::WavefrontSpec& spec,
                      const core::PhaseProgram&, const core::LoweredKernel& lowered,
                      core::Grid& grid, const core::RunControl*) const override {
    if (fuse().load() > 0) {
      fuse().fetch_sub(1);
      throw fault::InjectedError(fault::Site::kPhaseBoundary, fault::Severity::kTransient, 0);
    }
    return executor.run_serial(spec, grid, &lowered);
  }
  core::RunResult estimate(const core::HybridExecutor& executor, const core::InputParams& in,
                           const core::PhaseProgram&) const override {
    return serial_estimate(executor, in);
  }
};

void register_test_backends() {
  auto& reg = BackendRegistry::instance();
  if (!reg.find("test-gate")) reg.add(std::make_shared<GateBackend>());
  if (!reg.find("test-throwing")) reg.add(std::make_shared<ThrowingBackend>());
  if (!reg.find("test-control-polling")) reg.add(std::make_shared<ControlPollingBackend>());
  if (!reg.find("test-flaky")) reg.add(std::make_shared<FlakyBackend>());
}

/// submitted == completed + failed + timed_out + cancelled — the
/// conservation audit every quiescent engine must pass (api/engine.hpp).
void expect_conservation(const EngineStats& s) {
  EXPECT_EQ(s.jobs_submitted,
            s.jobs_completed + s.jobs_failed + s.jobs_timed_out + s.jobs_cancelled);
}

// --- load shedding ------------------------------------------------------

TEST(EngineServing, TrySubmitShedsWhenTheQueueIsFullAndRecovers) {
  register_test_backends();
  gate().reset();
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.queue_shards = 1;
  o.queue_capacity = 2;
  Engine eng(sim::make_i7_2600k(), o);
  EXPECT_EQ(eng.queue_capacity(), 2u);

  const auto spec = serving_spec();
  const Plan plan = eng.compile(spec, core::TunableParams{}, "test-gate");

  // First submit is popped by the (gated) worker; the queue then fills.
  std::vector<core::Grid> grids;
  grids.reserve(8);
  std::vector<std::future<core::RunResult>> futures;
  futures.push_back(eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
  gate().wait_arrived(1);  // worker is parked inside job 1, queue empty

  std::size_t accepted = 0;
  while (accepted < 8) {
    auto f = eng.try_submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes));
    if (!f) {
      grids.pop_back();
      break;
    }
    futures.push_back(std::move(*f));
    ++accepted;
  }
  // The shed point is the effective queue bound.
  EXPECT_EQ(accepted, eng.queue_capacity());
  EXPECT_EQ(eng.stats().queue_depth, eng.queue_capacity());
  // A rejected try_submit does not count as submitted.
  EXPECT_EQ(eng.stats().jobs_submitted, futures.size());

  gate().open_all();
  for (auto& f : futures) EXPECT_GT(f.get().rtime_ns, 0.0);
  // Capacity drained: try_submit accepts again.
  auto again = eng.try_submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes));
  ASSERT_TRUE(again.has_value());
  EXPECT_GT(again->get().rtime_ns, 0.0);
  EXPECT_EQ(eng.stats().jobs_failed, 0u);
}

// --- failure accounting -------------------------------------------------

TEST(EngineServing, FailedJobsAreCountedSeparatelyFromCompletions) {
  register_test_backends();
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = serving_spec();
  const Plan bad = eng.compile(spec, core::TunableParams{}, "test-throwing");
  const Plan good = eng.compile(spec, core::TunableParams{4, 8, 1, 1});

  core::Grid g1(spec.dim, spec.elem_bytes);
  core::Grid g2(spec.dim, spec.elem_bytes);
  auto f_bad = eng.submit(bad, g1);
  auto f_good = eng.submit(good, g2);
  EXPECT_THROW(f_bad.get(), std::runtime_error);
  EXPECT_GT(f_good.get().rtime_ns, 0.0);

  // jobs_completed counts successes ONLY; the failure is its own bucket.
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_submitted, 2u);
  EXPECT_EQ(s.jobs_completed, 1u);
  EXPECT_EQ(s.jobs_failed, 1u);

  // The synchronous path counts identically.
  core::Grid g3(spec.dim, spec.elem_bytes);
  EXPECT_THROW(eng.run(bad, g3), std::runtime_error);
  EXPECT_EQ(eng.stats().jobs_failed, 2u);
  EXPECT_EQ(eng.stats().jobs_completed, 1u);
}

// --- one pop, one run -----------------------------------------------------

/// Releasable latch the per-job-resolution probe's kernel parks on.
struct Latch {
  std::mutex m;
  std::condition_variable cv;
  bool released = false;
  void release() {
    {
      std::lock_guard<std::mutex> lock(m);
      released = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return released; });
  }
};

TEST(EngineServing, EachJobResolvesWhenItsOwnRunEnds) {
  // The kernel parks on its SECOND-ever call to cell (0, 0) — the first
  // cell of job 2 — until the test releases the latch. Job 1 ran to its
  // end before that, so its future must be ready while job 2 is still
  // parked: no job's promise waits on another job's execution.
  register_test_backends();
  gate().reset();
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.queue_shards = 1;
  Engine eng(sim::make_i7_2600k(), o);
  const auto base = serving_spec();
  core::Grid ref(base.dim, base.elem_bytes);
  eng.run(eng.compile(base, core::TunableParams{}, kSerialBackend), ref);

  auto origin_calls = std::make_shared<std::atomic<int>>(0);
  auto latch = std::make_shared<Latch>();
  core::WavefrontSpec spec = base;
  spec.segment = nullptr;
  spec.tile = {};  // per-cell dispatch, so cell (0, 0) is one kernel call per run
  spec.content_key = base.content_key + "|parks-on-second-origin";
  spec.kernel = [inner = base.kernel, origin_calls, latch](
                    std::size_t i, std::size_t j, const std::byte* w, const std::byte* n,
                    const std::byte* nw, std::byte* out) {
    if (i == 0 && j == 0 && origin_calls->fetch_add(1) == 1) latch->wait();
    inner(i, j, w, n, nw, out);
  };
  const Plan gate_plan = eng.compile(base, core::TunableParams{}, "test-gate");
  const Plan plan = eng.compile(spec, core::TunableParams{4, -1, -1, 1}, kCpuTiledBackend);

  // Park the worker so both jobs are queued before either is popped.
  std::vector<core::Grid> grids;
  grids.reserve(3);
  auto f_gate = eng.submit(gate_plan, grids.emplace_back(base.dim, base.elem_bytes));
  gate().wait_arrived(1);
  core::Grid& g1 = grids.emplace_back(base.dim, base.elem_bytes);
  core::Grid& g2 = grids.emplace_back(base.dim, base.elem_bytes);
  auto futures = eng.submit_batch(plan, {&g1, &g2});
  gate().open_all();

  const bool first_ready = futures[0].wait_for(5s) == std::future_status::ready;
  const bool second_parked = futures[1].wait_for(0s) != std::future_status::ready;
  latch->release();  // always: a grouping engine then fails instead of hanging
  EXPECT_TRUE(first_ready) << "job 1's promise waited for job 2's run";
  EXPECT_TRUE(second_parked) << "job 2 finished without reaching the latch";

  EXPECT_GT(f_gate.get().rtime_ns, 0.0);
  for (auto& f : futures) EXPECT_GT(f.get().rtime_ns, 0.0);
  EXPECT_EQ(std::memcmp(g1.data(), ref.data(), ref.size_bytes()), 0);
  EXPECT_EQ(std::memcmp(g2.data(), ref.data(), ref.size_bytes()), 0);
  EXPECT_EQ(origin_calls->load(), 2);
  expect_conservation(eng.stats());
}

// --- queue depth gauge --------------------------------------------------

TEST(EngineServing, QueueDepthGaugeReportsWaitingJobs) {
  register_test_backends();
  gate().reset();
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.queue_shards = 1;
  o.queue_capacity = 8;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = serving_spec();
  const Plan gate_plan = eng.compile(spec, core::TunableParams{}, "test-gate");

  std::vector<core::Grid> grids;
  grids.reserve(4);
  std::vector<std::future<core::RunResult>> futures;
  futures.push_back(eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
  gate().wait_arrived(1);  // picked up by the worker, which is now parked
  for (int i = 0; i < 3; ++i) {
    futures.push_back(eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
  }
  EXPECT_EQ(eng.stats().queue_depth, 3u);
  gate().open_all();
  for (auto& f : futures) EXPECT_GT(f.get().rtime_ns, 0.0);
  EXPECT_EQ(eng.stats().queue_depth, 0u);
}

// --- thread-local snapshot cache ----------------------------------------

TEST(EngineServing, ThreadLocalSnapshotCacheIsolatesEnginesAndClears) {
  // The read path validates a per-thread cached snapshot generation
  // against the engine's version stamp. One thread alternating between
  // two engines must hit each engine's own cache (never the other's),
  // and clear_plan_cache must invalidate this thread's cached generation
  // immediately — no stale hits off the thread-local shared_ptr.
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  Engine a(sim::make_i7_2600k(), o);
  Engine b(sim::make_i7_2600k(), o);
  const auto spec = serving_spec();
  const core::TunableParams p{4, 10, 1, 1};

  EXPECT_TRUE(a.compile(spec, p).shares_state_with(a.compile(spec, p)));
  EXPECT_TRUE(b.compile(spec, p).shares_state_with(b.compile(spec, p)));
  EXPECT_EQ(a.stats().plans_compiled, 1u);
  EXPECT_EQ(a.stats().plan_cache_hits, 1u);
  EXPECT_EQ(b.stats().plans_compiled, 1u);
  EXPECT_EQ(b.stats().plan_cache_hits, 1u);

  a.clear_plan_cache();
  EXPECT_EQ(a.plan_cache_size(), 0u);  // reader sees the clear at once
  EXPECT_EQ(a.stats().plans_compiled, 1u);
  (void)a.compile(spec, p);  // recompiles: the cleared map has no entry
  EXPECT_EQ(a.stats().plans_compiled, 2u);
  // The sibling engine's cache (and this thread's view of it) is intact.
  EXPECT_EQ(b.plan_cache_size(), 1u);
  (void)b.compile(spec, p);
  EXPECT_EQ(b.stats().plan_cache_hits, 2u);
  EXPECT_EQ(b.stats().plans_compiled, 1u);
}

TEST(EngineServing, SnapshotVersionsAreNeverReusedAcrossEngines) {
  // Engines are created and destroyed in a loop from one thread; each
  // compile must miss in the fresh engine even when the allocator reuses
  // the previous engine's address (the version counter is process-global,
  // so a stale thread-local SnapshotRef can never revalidate).
  const auto spec = serving_spec();
  const core::TunableParams p{4, 10, 1, 1};
  for (int i = 0; i < 8; ++i) {
    EngineOptions o;
    o.pool_workers = 1;
    o.queue_workers = 1;
    Engine eng(sim::make_i7_2600k(), o);
    (void)eng.compile(spec, p);
    EXPECT_EQ(eng.stats().plans_compiled, 1u);
    EXPECT_EQ(eng.stats().plan_cache_hits, 0u);
    EXPECT_TRUE(eng.compile(spec, p).shares_state_with(eng.compile(spec, p)));
    EXPECT_EQ(eng.stats().plan_cache_hits, 2u);
  }
}

// --- the stress satellite -----------------------------------------------

TEST(EngineServingStress, ProducersVsEvictionsVsCacheClearsStayBitIdentical) {
  // >= 8 producers hammer one engine (>= 4 queue workers) with compile +
  // submit while a churn thread clears the plan cache and the tiny cache
  // capacity forces constant clock evictions. Every grid must come out
  // bit-identical to the serial reference, every future must resolve, and
  // the books must balance. TSan-clean by construction (no test-side
  // synchronization beyond the engine's own).
  const auto spec = serving_spec(31, 14.0, 2);
  EngineOptions o;
  o.pool_workers = 2;
  o.queue_workers = 4;
  o.queue_capacity = 16;
  o.plan_cache_capacity = 2;  // forces eviction churn under the race
  Engine eng(sim::make_i7_2600k(), o);

  core::Grid ref(spec.dim, spec.elem_bytes);
  eng.run(eng.compile(spec, core::TunableParams{}, kSerialBackend), ref);

  const std::vector<core::TunableParams> recipes = {
      {4, 10, 2, 1}, {4, 12, -1, 1}, {2, 30, 0, 1}, {6, -1, -1, 1}, {4, 10, -1, 8},
  };

  constexpr int kProducers = 8;
  constexpr int kIterations = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    while (!stop_churn.load()) {
      eng.clear_plan_cache();
      std::this_thread::sleep_for(500us);
    }
  });
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        try {
          const Plan plan = eng.compile(spec, recipes[static_cast<std::size_t>(t + i) % recipes.size()]);
          core::Grid g(spec.dim, spec.elem_bytes);
          g.fill_poison();
          std::optional<std::future<core::RunResult>> f = eng.try_submit(plan, g);
          const core::RunResult r = f ? f->get() : eng.run(plan, g);  // shed => run inline
          if (r.rtime_ns <= 0.0) ++failures;
          if (std::memcmp(g.data(), ref.data(), g.size_bytes()) != 0) ++mismatches;
        } catch (...) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  stop_churn.store(true);
  churn.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_completed, s.jobs_submitted);
  EXPECT_EQ(s.jobs_failed, 0u);
  // 1 (serial ref) + producers*iterations compiles all resolved somewhere.
  EXPECT_EQ(s.plans_compiled + s.plan_cache_hits, 1u + kProducers * kIterations);
  EXPECT_LE(eng.plan_cache_size(), 2u);
}

TEST(EngineServingStress, ShutdownUnderLoadResolvesEveryAcceptedFuture) {
  // 100 randomized iterations of "destroy the engine with jobs still
  // queued": every accepted future must resolve (the destructor drains),
  // with values bit-identical to the serial reference.
  const auto spec = serving_spec(20, 8.0, 1);
  std::mt19937 rng(20260808u);
  core::Grid ref(spec.dim, spec.elem_bytes);
  {
    Engine warm(sim::make_i7_2600k(), EngineOptions{});
    warm.run(warm.compile(spec, core::TunableParams{}, kSerialBackend), ref);
  }
  for (int iter = 0; iter < 100; ++iter) {
    const int jobs = 1 + static_cast<int>(rng() % 8);
    std::vector<core::Grid> grids;
    grids.reserve(static_cast<std::size_t>(jobs));
    std::vector<std::future<core::RunResult>> futures;
    {
      EngineOptions o;
      o.pool_workers = 1;
      o.queue_workers = 1 + static_cast<std::size_t>(rng() % 2);
      o.queue_capacity = 2 + rng() % 6;
      Engine eng(sim::make_i7_2600k(), o);
      const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});
      for (int j = 0; j < jobs; ++j) {
        futures.push_back(eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
      }
      // Engine destructor runs here with most jobs still queued.
    }
    for (auto& f : futures) EXPECT_GT(f.get().rtime_ns, 0.0) << "iteration " << iter;
    for (const auto& g : grids) {
      EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0) << "iteration " << iter;
    }
  }
}

// --- shutdown contract edges --------------------------------------------

TEST(EngineServing, SubmitVariantsAfterShutdownThrowAndShutdownIsIdempotent) {
  register_test_backends();
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = serving_spec();
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});
  core::Grid g(spec.dim, spec.elem_bytes);
  EXPECT_GT(eng.submit(plan, g).get().rtime_ns, 0.0);

  eng.shutdown();
  eng.shutdown();  // idempotent; also safe after the first fully joined
  EXPECT_THROW(eng.submit(plan, g), std::runtime_error);
  EXPECT_THROW(eng.try_submit(plan, g), std::runtime_error);
  EXPECT_THROW(eng.submit(plan, g, SubmitOptions{}), std::runtime_error);
  EXPECT_THROW(eng.try_submit(plan, g, SubmitOptions{}), std::runtime_error);
  EXPECT_THROW(eng.submit_batch(plan, {&g}), std::runtime_error);
  EXPECT_THROW(eng.submit_batch(plan, {&g}, SubmitOptions{}), std::runtime_error);
  // Rejected submits are not accounted as submitted.
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_submitted, 1u);
  EXPECT_EQ(s.jobs_completed, 1u);
  expect_conservation(s);
}

TEST(EngineServing, ShutdownWithWorkersParkedInTheBlockingPopJoinsCleanly) {
  // The engine-level close-while-popping edge: every queue worker is
  // asleep in the futex pop slow path (no job was ever submitted) when
  // shutdown closes the queue under them. close() must wake and retire
  // all of them — a hang here is the classic lost-wakeup bug.
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 4;
  Engine eng(sim::make_i7_2600k(), o);
  std::this_thread::sleep_for(20ms);  // let the workers park in pop()
  eng.shutdown();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_submitted, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(EngineServing, ShutdownRacingSubmitBatchKeepsTheBooksBalanced) {
  // A producer streams submit_batch calls while shutdown lands at a
  // randomized point. Contract: the producer either gets a full batch of
  // futures or the "shutting down" throw; every future it DID get
  // resolves with a result; and at quiescence the books balance — jobs
  // accepted in a batch the throw cut short still ran during the drain.
  register_test_backends();
  const auto spec = serving_spec(20, 8.0, 1);
  std::mt19937 rng(20260809u);
  for (int iter = 0; iter < 20; ++iter) {
    EngineOptions o;
    o.pool_workers = 1;
    o.queue_workers = 2;
    o.queue_capacity = 16;
    Engine eng(sim::make_i7_2600k(), o);
    const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});
    std::deque<core::Grid> grids;  // stable addresses across growth
    std::vector<std::future<core::RunResult>> accepted;
    std::atomic<bool> cut_short{false};
    std::thread producer([&] {
      try {
        for (int b = 0; b < 64; ++b) {
          std::vector<core::Grid*> batch;
          for (int j = 0; j < 3; ++j) {
            batch.push_back(&grids.emplace_back(spec.dim, spec.elem_bytes));
          }
          auto fs = eng.submit_batch(plan, batch);
          for (auto& f : fs) accepted.push_back(std::move(f));
        }
      } catch (const std::runtime_error&) {
        cut_short.store(true);  // shutdown won the race mid-stream
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(rng() % 400));
    eng.shutdown();
    producer.join();
    for (auto& f : accepted) {
      EXPECT_GT(f.get().rtime_ns, 0.0) << "iteration " << iter;
    }
    const EngineStats s = eng.stats();
    expect_conservation(s);
    // Futures handed back before the cut all completed; jobs enqueued by
    // the very batch the throw discarded are the only ones beyond them.
    EXPECT_GE(s.jobs_completed, accepted.size()) << "iteration " << iter;
    EXPECT_EQ(s.queue_depth, 0u);
    (void)cut_short;
  }
}

// --- deadlines, cancellation, retries, fallback -------------------------

TEST(EngineServing, ExpiredDeadlineShedsTheJobAtDequeueWithJobTimedOut) {
  register_test_backends();
  gate().reset();
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.queue_shards = 1;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = serving_spec();
  const Plan gate_plan = eng.compile(spec, core::TunableParams{}, "test-gate");
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});

  std::vector<core::Grid> grids;
  grids.reserve(2);
  // Park the worker, then queue a job whose deadline expires while it
  // waits: it must be shed at dequeue, never executed.
  auto f_gate = eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes));
  gate().wait_arrived(1);
  SubmitOptions opts;
  opts.deadline = 1ns;
  Submission sub = eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes), opts);
  std::this_thread::sleep_for(1ms);  // the deadline is long past
  gate().open_all();
  EXPECT_GT(f_gate.get().rtime_ns, 0.0);
  EXPECT_THROW(sub.future.get(), JobTimedOut);

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_timed_out, 1u);
  EXPECT_EQ(s.jobs_completed, 1u);
  expect_conservation(s);
}

TEST(EngineServing, CancelWhileQueuedResolvesJobCancelledWithoutExecuting) {
  register_test_backends();
  gate().reset();
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.queue_shards = 1;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = serving_spec();
  const Plan gate_plan = eng.compile(spec, core::TunableParams{}, "test-gate");
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});

  std::vector<core::Grid> grids;
  grids.reserve(2);
  auto f_gate = eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes));
  gate().wait_arrived(1);
  core::Grid& target = grids.emplace_back(spec.dim, spec.elem_bytes);
  target.fill_poison();
  Submission sub = eng.submit(plan, target, SubmitOptions{});
  eng.cancel(sub);
  eng.cancel(sub);  // idempotent
  gate().open_all();
  EXPECT_GT(f_gate.get().rtime_ns, 0.0);
  EXPECT_THROW(sub.future.get(), JobCancelled);

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_cancelled, 1u);
  EXPECT_EQ(s.jobs_completed, 1u);
  expect_conservation(s);
}

TEST(EngineServing, CancelInterruptsAnInFlightJobAtThePhaseBoundary) {
  register_test_backends();
  ControlPollingBackend::arrivals().store(0);
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = serving_spec();
  const Plan plan = eng.compile(spec, core::TunableParams{}, "test-control-polling");

  core::Grid g(spec.dim, spec.elem_bytes);
  Submission sub = eng.submit(plan, g, SubmitOptions{});
  while (ControlPollingBackend::arrivals().load() == 0) std::this_thread::sleep_for(100us);
  // The job is in flight, parked on its control token. Cancellation must
  // reach it at the next poll — the one-phase latency bound.
  eng.cancel(sub);
  EXPECT_THROW(sub.future.get(), JobCancelled);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_cancelled, 1u);
  EXPECT_EQ(s.jobs_completed, 0u);
  expect_conservation(s);
}

TEST(EngineServing, DeadlineInterruptsAnInFlightJobWithJobTimedOut) {
  register_test_backends();
  ControlPollingBackend::arrivals().store(0);
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = serving_spec();
  const Plan plan = eng.compile(spec, core::TunableParams{}, "test-control-polling");

  core::Grid g(spec.dim, spec.elem_bytes);
  SubmitOptions opts;
  opts.deadline = 2ms;  // expires while the backend polls its token
  Submission sub = eng.submit(plan, g, opts);
  EXPECT_THROW(sub.future.get(), JobTimedOut);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_timed_out, 1u);
  expect_conservation(s);
}

TEST(EngineServing, TransientFailuresRetryWithinBudgetAndSucceed) {
  register_test_backends();
  const auto spec = serving_spec(20, 8.0, 1);
  core::Grid ref(spec.dim, spec.elem_bytes);
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.retry_backoff_base = 1us;
  o.retry_backoff_max = 10us;
  Engine eng(sim::make_i7_2600k(), o);
  eng.run(eng.compile(spec, core::TunableParams{}, kSerialBackend), ref);
  const Plan plan = eng.compile(spec, core::TunableParams{}, "test-flaky");

  FlakyBackend::fuse().store(2);  // two transient failures, then recovery
  core::Grid g(spec.dim, spec.elem_bytes);
  g.fill_poison();
  SubmitOptions opts;
  opts.max_retries = 3;
  Submission sub = eng.submit(plan, g, opts);
  EXPECT_GT(sub.future.get().rtime_ns, 0.0);
  EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0);

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_retried, 2u);
  EXPECT_EQ(s.jobs_completed, 2u);  // serial ref + the retried job
  EXPECT_EQ(s.jobs_failed, 0u);
  EXPECT_EQ(s.jobs_degraded, 0u);
  expect_conservation(s);
}

TEST(EngineServing, TransientFailuresPastTheBudgetFailWithoutFallback) {
  register_test_backends();
  const auto spec = serving_spec(20, 8.0, 1);
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.retry_backoff_base = 1us;
  o.retry_backoff_max = 10us;
  Engine eng(sim::make_i7_2600k(), o);
  const Plan plan = eng.compile(spec, core::TunableParams{}, "test-flaky");

  FlakyBackend::fuse().store(100);  // never recovers within any budget
  core::Grid g(spec.dim, spec.elem_bytes);
  SubmitOptions opts;
  opts.max_retries = 1;
  Submission sub = eng.submit(plan, g, opts);
  EXPECT_THROW(sub.future.get(), fault::InjectedError);

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_retried, 1u);  // the budget was spent...
  EXPECT_EQ(s.jobs_failed, 1u);   // ...and the job still failed
  EXPECT_EQ(s.jobs_degraded, 0u);
  expect_conservation(s);
}

TEST(EngineServing, PermanentBackendFailureWalksTheFallbackChain) {
  register_test_backends();
  const auto spec = serving_spec(20, 8.0, 1);
  core::Grid ref(spec.dim, spec.elem_bytes);
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  Engine eng(sim::make_i7_2600k(), o);
  eng.run(eng.compile(spec, core::TunableParams{}, kSerialBackend), ref);
  const Plan plan = eng.compile(spec, core::TunableParams{}, "test-throwing");

  core::Grid g(spec.dim, spec.elem_bytes);
  g.fill_poison();
  SubmitOptions opts;
  opts.allow_fallback = true;
  Submission sub = eng.submit(plan, g, opts);
  // The throwing backend fails permanently; the job degrades down the
  // chain and still completes, bit-identical to the serial reference.
  EXPECT_GT(sub.future.get().rtime_ns, 0.0);
  EXPECT_EQ(std::memcmp(g.data(), ref.data(), g.size_bytes()), 0);

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_degraded, 1u);
  EXPECT_EQ(s.jobs_failed, 0u);
  EXPECT_EQ(s.jobs_completed, 2u);  // serial ref + the degraded job
  expect_conservation(s);
}

TEST(EngineServing, SubmissionHistoryRecordsRetriesAndDegradation) {
  register_test_backends();
  const auto spec = serving_spec(20, 8.0, 1);
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.retry_backoff_base = std::chrono::microseconds(10);
  o.retry_backoff_max = std::chrono::microseconds(100);
  Engine eng(sim::make_i7_2600k(), o);

  // Retries on one backend: two transient failures, third attempt lands.
  // The consecutive-dedup keeps the walked-backends list at one entry.
  FlakyBackend::fuse().store(2);
  const Plan flaky = eng.compile(spec, core::TunableParams{}, "test-flaky");
  core::Grid g1(spec.dim, spec.elem_bytes);
  SubmitOptions retrying;
  retrying.max_retries = 3;
  Submission retried = eng.submit(flaky, g1, retrying);
  EXPECT_GT(retried.future.get().rtime_ns, 0.0);
  JobHistory h = retried.history();
  EXPECT_EQ(h.attempts, 3u);
  ASSERT_EQ(h.backends.size(), 1u);
  EXPECT_EQ(h.backends[0], "test-flaky");
  EXPECT_FALSE(h.degraded);

  // Degradation: a permanent failure walks to the first fallback rung,
  // and the history records BOTH backends, in order.
  const Plan bad = eng.compile(spec, core::TunableParams{}, "test-throwing");
  core::Grid g2(spec.dim, spec.elem_bytes);
  SubmitOptions degrading;
  degrading.allow_fallback = true;
  Submission degraded = eng.submit(bad, g2, degrading);
  EXPECT_GT(degraded.future.get().rtime_ns, 0.0);
  h = degraded.history();
  EXPECT_EQ(h.attempts, 2u);
  ASSERT_EQ(h.backends.size(), 2u);
  EXPECT_EQ(h.backends[0], "test-throwing");
  EXPECT_EQ(h.backends[1], kCpuDataflowBackend);
  EXPECT_TRUE(h.degraded);

  // A job that never carried a control block reports an empty history.
  const Plan plain = eng.compile(spec, core::TunableParams{4, 8, 1, 1});
  EXPECT_EQ(Submission{}.history().attempts, 0u);
  (void)plain;
}

TEST(EngineServing, FallbackDisabledPropagatesThePermanentFailure) {
  register_test_backends();
  const auto spec = serving_spec(20, 8.0, 1);
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  Engine eng(sim::make_i7_2600k(), o);
  const Plan plan = eng.compile(spec, core::TunableParams{}, "test-throwing");

  core::Grid g(spec.dim, spec.elem_bytes);
  Submission sub = eng.submit(plan, g, SubmitOptions{});  // no fallback
  EXPECT_THROW(sub.future.get(), std::runtime_error);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_failed, 1u);
  EXPECT_EQ(s.jobs_degraded, 0u);
  expect_conservation(s);
}

TEST(EngineServing, ShutdownDrainBudgetShedsQueuedJobsButResolvesEveryFuture) {
  register_test_backends();
  gate().reset();
  EngineOptions o;
  o.pool_workers = 1;
  o.queue_workers = 1;
  o.queue_shards = 1;
  o.queue_capacity = 8;
  Engine eng(sim::make_i7_2600k(), o);
  const auto spec = serving_spec();
  const Plan gate_plan = eng.compile(spec, core::TunableParams{}, "test-gate");
  const Plan plan = eng.compile(spec, core::TunableParams{4, 8, 1, 1});

  // One job parks the worker; four more wait behind it. A drain budget
  // that expires before the gate opens must shed the queued jobs with
  // JobCancelled — while the future count still balances exactly.
  std::vector<core::Grid> grids;
  grids.reserve(5);
  std::vector<std::future<core::RunResult>> futures;
  futures.push_back(eng.submit(gate_plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
  gate().wait_arrived(1);
  for (int i = 0; i < 4; ++i) {
    futures.push_back(eng.submit(plan, grids.emplace_back(spec.dim, spec.elem_bytes)));
  }
  std::thread closer([&] { eng.shutdown(2ms); });
  std::this_thread::sleep_for(10ms);  // drain deadline is now long past
  gate().open_all();                  // release the worker to the shed path
  closer.join();

  std::size_t completed = 0, cancelled = 0;
  for (auto& f : futures) {
    try {
      EXPECT_GT(f.get().rtime_ns, 0.0);
      ++completed;
    } catch (const JobCancelled&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, futures.size());
  EXPECT_GE(cancelled, 1u);  // the queued jobs were shed, not executed
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_completed, completed);
  EXPECT_EQ(s.jobs_cancelled, cancelled);
  EXPECT_EQ(s.queue_depth, 0u);
  expect_conservation(s);
}

}  // namespace
}  // namespace wavetune::api
