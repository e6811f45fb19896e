// Work-stealing thread pool.
//
// Each worker owns a deque: it pushes and pops follow-up work at the
// bottom (LIFO, so a producer's freshly-written data is consumed while
// still cache-hot) and idle workers steal from the top (FIFO, so the
// oldest — usually largest — pending work migrates). A global injection
// queue receives tasks submitted from outside the pool. This is the
// substrate of the dataflow tile sweep (cpu/dataflow_wavefront.hpp):
// tasks spawn their successors with submit_local, idle workers steal, and
// the thread that started the sweep helps through try_run_one.
//
// The pool is created once per executor and reused across phases,
// mirroring the paper's "threads to control CPU phases".
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <atomic>

namespace wavetune::cpu {

class ThreadPool {
public:
  /// Spawns `workers` threads; 0 picks std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Fire-and-forget task submission onto the global injection queue.
  /// Tasks must not throw (the schedulers built on top catch internally
  /// and propagate to their caller). Throws std::runtime_error once the
  /// pool is stopping.
  void submit(std::function<void()> task);

  /// Like submit, but when called from one of this pool's worker threads
  /// the task goes to the BOTTOM of that worker's own deque: the worker
  /// continues into it next (LIFO, cache-hot) unless an idle worker steals
  /// it from the top first. From any other thread it behaves as submit().
  void submit_local(std::function<void()> task);

  /// Runs one pending task (global queue first, then stealing from the
  /// worker deques) on the CALLING thread. Returns false when no task was
  /// claimable. Lets a thread blocked on a scheduler's completion help
  /// instead of idling.
  bool try_run_one();

  /// Blocks until every queue (global + all worker deques) is empty and
  /// all workers are idle.
  void drain();

private:
  /// One worker's deque. Owner pushes/pops the bottom (back); thieves take
  /// the top (front) under try_lock so a busy owner never blocks a steal
  /// scan for long.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t index);
  bool pop_local(std::size_t index, std::function<void()>& out);
  bool pop_global(std::function<void()>& out);
  bool try_steal(std::size_t thief, std::function<void()>& out);
  /// Claim bookkeeping shared by every successful pop: the task counts as
  /// active BEFORE it stops counting as queued, so drain() can never
  /// observe the gap.
  void claimed();
  void finished();
  /// Wakes a sleeping worker if any; called after every push.
  void notify_work();

  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> global_;
  std::mutex mutex_;  ///< guards global_, stop_, and the sleep/idle CVs
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::atomic<std::size_t> queued_{0};   ///< pushed, not yet claimed
  std::atomic<std::size_t> active_{0};   ///< claimed, still executing
  std::atomic<std::size_t> sleepers_{0}; ///< workers waiting on cv_task_
  bool stop_ = false;
};

}  // namespace wavetune::cpu
