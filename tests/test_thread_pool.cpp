#include "cpu/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace wavetune::cpu {
namespace {

TEST(ThreadPool, WorkerCountDefaultsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, ExplicitWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, SubmitAndDrain) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, ManyShortSubmitDrainRounds) {
  // Repeated fork/join rounds of a few tasks each (the multi-GPU epoch
  // pattern): workers sleep and wake between rounds, nothing is lost.
  ThreadPool pool(8);
  std::atomic<std::size_t> total{0};
  for (std::size_t round = 0; round < 200; ++round) {
    for (std::size_t t = 0; t < round % 4 + 1; ++t) pool.submit([&] { total.fetch_add(1); });
    pool.drain();
  }
  EXPECT_EQ(total.load(), std::size_t{50 * (1 + 2 + 3 + 4)});
}

TEST(ThreadPool, SubmitLocalFromExternalThreadBehavesLikeSubmit) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) pool.submit_local([&] { done.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, SubmitLocalTasksAreStolenByIdleWorkers) {
  // A worker pushes tasks onto its OWN deque and then stays busy: every
  // pushed task must complete anyway — only stealing by the other workers
  // can have run them, and none on the producer's thread.
  ThreadPool pool(4);
  constexpr int kTasks = 32;
  std::atomic<int> ran_on_producer{0};
  std::atomic<bool> release{false};
  std::atomic<int> stolen{0};
  pool.submit([&] {
    const std::thread::id producer = std::this_thread::get_id();
    for (int i = 0; i < kTasks; ++i) {
      pool.submit_local([&, producer] {
        if (std::this_thread::get_id() == producer) ran_on_producer.fetch_add(1);
        stolen.fetch_add(1, std::memory_order_release);
      });
    }
    // Producer spins until every pushed task completed elsewhere.
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (stolen.load(std::memory_order_acquire) < kTasks) std::this_thread::yield();
  EXPECT_EQ(ran_on_producer.load(), 0);
  release.store(true, std::memory_order_release);
  pool.drain();
}

TEST(ThreadPool, TryRunOneExecutesPendingWorkOnCallingThread) {
  ThreadPool pool(1);
  // Park the lone worker so the submitted task stays queued. Wait until
  // the worker actually claimed the parking task, or try_run_one below
  // could claim it itself and spin forever.
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  pool.submit([&] {
    parked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  std::atomic<int> done{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] {
    ran_on = std::this_thread::get_id();
    done.fetch_add(1);
  });
  while (!pool.try_run_one()) std::this_thread::yield();
  EXPECT_EQ(done.load(), 1);
  EXPECT_EQ(ran_on, caller);
  release.store(true, std::memory_order_release);
  pool.drain();
  EXPECT_FALSE(pool.try_run_one());  // nothing left to claim
}

}  // namespace
}  // namespace wavetune::cpu
