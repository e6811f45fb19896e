#include "cpu/thread_pool.hpp"

#include <stdexcept>
#include <utility>

namespace wavetune::cpu {

namespace {

/// Identity of the current thread within a pool: set once per worker
/// thread, read by submit_local to find the worker's own deque. A plain
/// thread exterior to every pool keeps {nullptr, 0}.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  std::size_t n = workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::claimed() {
  // Active BEFORE un-queued: a drain() racing the claim sees the task in
  // at least one of the two counters at every instant.
  active_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_sub(1, std::memory_order_release);
}

void ThreadPool::finished() {
  if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      queued_.load(std::memory_order_acquire) == 0) {
    // Momentarily fully idle: tell drain(). Taking the mutex orders the
    // notify after any drain() that already evaluated its predicate.
    std::lock_guard<std::mutex> lock(mutex_);
    cv_idle_.notify_all();
  }
}

void ThreadPool::notify_work() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  cv_task_.notify_one();
}

bool ThreadPool::pop_local(std::size_t index, std::function<void()>& out) {
  WorkerQueue& q = *queues_[index];
  std::lock_guard<std::mutex> lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // bottom: newest first (cache-hot)
  q.tasks.pop_back();
  claimed();
  return true;
}

bool ThreadPool::pop_global(std::function<void()>& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (global_.empty()) return false;
  out = std::move(global_.front());
  global_.pop_front();
  claimed();
  return true;
}

bool ThreadPool::try_steal(std::size_t start, std::function<void()>& out) {
  const std::size_t n = queues_.size();
  for (std::size_t k = 0; k < n; ++k) {
    WorkerQueue& q = *queues_[(start + k) % n];
    std::unique_lock<std::mutex> lock(q.mutex, std::try_to_lock);
    if (!lock.owns_lock() || q.tasks.empty()) continue;
    out = std::move(q.tasks.front());  // top: oldest first
    q.tasks.pop_front();
    claimed();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker = WorkerIdentity{this, index};
  std::function<void()> task;
  for (;;) {
    if (pop_local(index, task) || pop_global(task) ||
        try_steal((index + 1) % queues_.size(), task)) {
      task();
      task = nullptr;  // release captures before the idle bookkeeping
      finished();
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_ && queued_.load(std::memory_order_seq_cst) == 0) return;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    // queued_ is bumped by producers BEFORE the push lands, so this
    // predicate can wake a worker slightly early; the scan above simply
    // retries until the in-flight push becomes claimable. The handshake
    // with notify_work() is Dekker-style — producer: queued_ store then
    // sleepers_ load; consumer: sleepers_ store then queued_ load — so
    // ALL four accesses must be seq_cst: the single total order
    // guarantees at least one side sees the other, ruling out the
    // sleep-forever interleaving.
    cv_task_.wait(lock, [this] {
      return stop_ || queued_.load(std::memory_order_seq_cst) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (stop_ && queued_.load(std::memory_order_seq_cst) == 0) return;
  }
}

void ThreadPool::submit(std::function<void()> task) {
  queued_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      throw std::runtime_error("ThreadPool::submit: pool is stopping");
    }
    global_.push_back(std::move(task));
    cv_task_.notify_one();
  }
}

void ThreadPool::submit_local(std::function<void()> task) {
  if (tls_worker.pool != this) {
    submit(std::move(task));
    return;
  }
  WorkerQueue& q = *queues_[tls_worker.index];
  queued_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(q.mutex);
    q.tasks.push_back(std::move(task));
  }
  notify_work();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  if (!pop_global(task) && !try_steal(0, task)) return false;
  task();
  task = nullptr;
  finished();
  return true;
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] {
    return queued_.load(std::memory_order_acquire) == 0 &&
           active_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace wavetune::cpu
