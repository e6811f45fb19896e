// Sharded bounded MPMC queue — the Engine's serving-scale job spine.
//
// A single-mutex bounded queue serializes every producer and consumer on
// one lock: fine for one client, a wall at thousands of concurrent
// submitters. ShardedQueue keeps that external contract — bounded memory,
// blocking push/pop, close() + drain shutdown — but the hot path is
// lock-free:
//
//   * N ring shards (power-of-two count and per-shard capacity), each a
//     bounded MPMC ring of sequence-stamped cells (Vyukov's algorithm):
//     a push or pop is one CAS on the shard's tail/head plus one
//     sequence store, no mutex, no syscall.
//   * Producers pick a starting shard by a cheap thread-local hash and
//     fall over to the next shard when theirs is full; backpressure (the
//     blocking slow path) engages only when ALL shards are full, so
//     memory stays bounded while same-core producers stop contending on
//     one cache line.
//   * Consumers drain their own shard first and steal from the others —
//     the same owner-first/steal discipline as cpu::ThreadPool — so under
//     load a consumer's pops are shard-local and mostly uncontended.
//
// Blocking and shutdown ride on a futex-based SLOW path (C++20
// std::atomic wait/notify on 32-bit epoch counters) that is only touched
// when a caller must sleep (queue empty / all shards full) or when
// close() fires; the sleep protocol against the lock-free fast path is a
// Dekker-style handshake (see the `*_waiters_` / `*_epoch_` comments).
// There is deliberately NO mutex/condition_variable anywhere in this
// queue: a 4-byte atomic wait compiles to a raw FUTEX_WAIT whose
// value-equality check happens in the kernel, so a wakeup can never slip
// between a waiter's re-scan and its sleep — and it sidesteps the glibc
// condvar lost-wakeup bug (sourceware BZ #25847, present in glibc
// 2.27..2.40) that we reproduced on this code's previous mutex+CV slow
// path: a consumer stayed parked in pthread_cond_wait with the queue
// fully drained and closed after a delivered notify_all. close()/drain
// semantics: push returns false once the close is observed, items
// accepted before that all drain through pop(), and
// pop() returns nullopt only when the queue is closed AND every accepted
// item has been handed out (the `pending_push_` guard closes the
// push-vs-close race that could otherwise strand an accepted item after
// the last consumer exited).
//
// T must be default-constructible and move-assignable (ring cells hold a
// T by value; a popped cell's payload is the moved-from husk until the
// slot is reused).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fault/injector.hpp"

namespace wavetune::api {

/// Relaxed monotonic counters of where queue time goes; every field is
/// individually consistent but a snapshot is not an atomic cut (same
/// caveat as EngineStats).
struct ShardedQueueStats {
  std::uint64_t pushes = 0;          ///< successful pushes (blocking or try)
  std::uint64_t pops = 0;            ///< successful pops
  std::uint64_t push_fallovers = 0;  ///< pushes that skipped >=1 full shard
  std::uint64_t pop_steals = 0;      ///< pops served from a non-own shard
  std::uint64_t push_blocks = 0;     ///< times a push had to sleep (all shards full)
  std::uint64_t pop_blocks = 0;      ///< times a pop had to sleep (queue empty)
};

template <typename T>
class ShardedQueue {
public:
  /// `capacity` is the requested TOTAL bound; it is split across `shards`
  /// rings and each ring rounds up to a power of two (so the effective
  /// capacity(), never smaller than requested, is what backpressure
  /// enforces). `shards` rounds up to a power of two; 0 picks 1. A
  /// 1-shard queue is simply a bounded lock-free MPMC ring.
  explicit ShardedQueue(std::size_t capacity, std::size_t shards = 4)
      : shard_mask_(round_pow2(shards == 0 ? 1 : shards) - 1) {
    const std::size_t n = shard_mask_ + 1;
    const std::size_t want = capacity == 0 ? 1 : capacity;
    // Floor of 2 per ring: with a single cell, "free for push #p+1" and
    // "holds item #p" are the same sequence value on the same cell, so
    // the ring cannot tell full from empty (Vyukov's algorithm needs
    // capacity >= 2).
    const std::size_t per_shard = std::max<std::size_t>(2, round_pow2((want + n - 1) / n));
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>(per_shard));
  }

  ShardedQueue(const ShardedQueue&) = delete;
  ShardedQueue& operator=(const ShardedQueue&) = delete;

  // --- producers --------------------------------------------------------

  /// Non-blocking push. Tries the caller's hashed shard, then falls over
  /// to each other shard once; false when every shard is full or the
  /// queue is closed (item is left untouched in the caller's hands, so a
  /// load-shedding caller can still resolve its promise). Distinguish the
  /// two outcomes with closed() when it matters.
  ///
  /// Fault-injection sites (fault/injector.hpp, disarmed = one relaxed
  /// load each): kQueuePush/kQueuePop fire at the public entry points
  /// BEFORE any queue state is touched, kQueueFutexWait fires before a
  /// sleeper registers as a waiter — so an injected throw can never leak
  /// a waiter count, strand a pending push, or tear a ring cell. An
  /// InjectedError from push/try_push means the item was NOT accepted
  /// (still in the caller's hands); from pop, nothing was popped.
  bool try_push(T& item) {
    fault::check(fault::Site::kQueuePush);
    return push_attempt(item) == PushResult::kOk;
  }

  /// Blocks until a shard has room, then enqueues. Returns false when the
  /// queue was closed before room appeared (`item` is then not moved
  /// from). The rvalue overload runs
  /// the fault check BEFORE consuming `item`: an injected throw leaves
  /// the caller's object (promise and all) intact and re-pushable.
  bool push(T&& item) {
    fault::check(fault::Site::kQueuePush);
    return push_slow(item);
  }
  bool push(const T& item) {
    fault::check(fault::Site::kQueuePush);
    T copy(item);
    return push_slow(copy);
  }

private:
  /// The blocking push loop; moves from `item` only on acceptance.
  bool push_slow(T& item) {
    for (;;) {
      PushResult r = push_attempt(item);
      if (r == PushResult::kOk) return true;
      if (r == PushResult::kClosed) return false;
      // All shards full: sleep until a pop frees a slot. Registering in
      // push_waiters_ BEFORE reading the epoch ticket and re-scanning is
      // the Dekker handshake against the consumer side's "pop, then check
      // push_waiters_, then bump push_epoch_" sequence (both sides
      // seq_cst): if the consumer's waiter check missed our registration,
      // its freed slot precedes our re-scan in the seq_cst order and the
      // re-scan finds it; if it saw us, its epoch bump either precedes
      // our ticket read (so the slot is visible to the re-scan) or
      // invalidates the ticket and wait() returns without sleeping (the
      // futex value check is kernel-side). Either way no wakeup is lost.
      push_blocks_.fetch_add(1, std::memory_order_relaxed);
      fault::check(fault::Site::kQueueFutexWait);  // before waiter registration
      push_waiters_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t ticket = push_epoch_.load(std::memory_order_seq_cst);
      r = push_attempt(item);
      if (r != PushResult::kFull) {
        push_waiters_.fetch_sub(1, std::memory_order_relaxed);
        return r == PushResult::kOk;
      }
      push_epoch_.wait(ticket, std::memory_order_seq_cst);  // spurious wakeups re-loop
      push_waiters_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

public:
  // --- consumers --------------------------------------------------------

  /// Non-blocking pop: consumer `who`'s own shard first, then steals from
  /// the others.
  std::optional<T> try_pop(std::size_t who) {
    fault::check(fault::Site::kQueuePop);
    return try_pop_impl(who);
  }

  /// Blocks until an item is available; nullopt once the queue is closed
  /// AND drained (every accepted push handed out).
  std::optional<T> pop(std::size_t who) {
    for (;;) {
      if (std::optional<T> item = try_pop(who)) return item;
      if (closed_.load(std::memory_order_seq_cst) && drained()) return std::nullopt;
      pop_blocks_.fetch_add(1, std::memory_order_relaxed);
      fault::check(fault::Site::kQueueFutexWait);  // before waiter registration
      // Same Dekker handshake as the push slow path, against "push, then
      // check pop_waiters_, then bump pop_epoch_".
      pop_waiters_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t ticket = pop_epoch_.load(std::memory_order_seq_cst);
      if (std::optional<T> item = try_pop_impl(who)) {
        pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
        return item;
      }
      if (closed_.load(std::memory_order_seq_cst) && drained()) {
        pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      pop_epoch_.wait(ticket, std::memory_order_seq_cst);
      pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // --- shutdown ---------------------------------------------------------

  /// Idempotent. Wakes every sleeper; pushes fail from the moment the
  /// flag is observed; accepted items still drain through pop().
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    // Unconditional (no waiter-count gate): close is rare and a stray
    // pair of futex wakes is cheaper than reasoning about the gate here.
    wake(push_epoch_, /*all=*/true);
    wake(pop_epoch_, /*all=*/true);
  }

  bool closed() const { return closed_.load(std::memory_order_seq_cst); }

  // --- introspection ----------------------------------------------------

  /// Effective total bound (requested capacity rounded up per shard).
  std::size_t capacity() const {
    return (shard_mask_ + 1) * (shards_[0]->mask + 1);
  }
  std::size_t shard_count() const { return shard_mask_ + 1; }

  /// Live depth gauge: accepted minus handed-out, maintained relaxed —
  /// exact once the queue is quiescent, approximate mid-flight.
  std::size_t size() const {
    const std::int64_t d = depth_.load(std::memory_order_relaxed);
    return d > 0 ? static_cast<std::size_t>(d) : 0;
  }

  ShardedQueueStats stats() const {
    ShardedQueueStats s;
    s.pushes = pushes_.load(std::memory_order_relaxed);
    s.pops = pops_.load(std::memory_order_relaxed);
    s.push_fallovers = push_fallovers_.load(std::memory_order_relaxed);
    s.pop_steals = pop_steals_.load(std::memory_order_relaxed);
    s.push_blocks = push_blocks_.load(std::memory_order_relaxed);
    s.pop_blocks = pop_blocks_.load(std::memory_order_relaxed);
    return s;
  }

  /// The shard a producer on the calling thread starts at — exposed so
  /// tests can pin shard-local expectations.
  std::size_t producer_shard() const { return producer_hint() & shard_mask_; }

private:
  enum class PushResult { kOk, kFull, kClosed };

  /// One bounded MPMC ring (Vyukov): cell.seq == pos means "free, awaiting
  /// push #pos"; seq == pos + 1 means "holds item #pos, awaiting pop";
  /// after pop the cell is re-armed for the next lap (seq = pos + mask +
  /// 1). The acquire load / seq_cst store pair on `seq` is what hands the
  /// non-atomic `item` across threads. The publishing stores are seq_cst
  /// rather than release so they participate in the single total order
  /// the sleep/notify and drain handshakes reason in (on x86 this costs
  /// one locked instruction per op; loads stay plain).
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T item{};
  };

  struct Shard {
    explicit Shard(std::size_t cap) : cells(new Cell[cap]), mask(cap - 1) {
      for (std::size_t i = 0; i < cap; ++i) cells[i].seq.store(i, std::memory_order_relaxed);
    }

    bool try_push(T& item) {
      std::size_t pos = tail.load(std::memory_order_relaxed);
      for (;;) {
        Cell& cell = cells[pos & mask];
        const std::size_t seq = cell.seq.load(std::memory_order_acquire);
        const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
        if (dif == 0) {
          if (tail.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
            cell.item = std::move(item);
            cell.seq.store(pos + 1, std::memory_order_seq_cst);
            return true;
          }
        } else if (dif < 0) {
          return false;  // a full lap behind: shard is full
        } else {
          pos = tail.load(std::memory_order_relaxed);
        }
      }
    }

    std::optional<T> try_pop() {
      std::size_t pos = head.load(std::memory_order_relaxed);
      for (;;) {
        Cell& cell = cells[pos & mask];
        const std::size_t seq = cell.seq.load(std::memory_order_acquire);
        const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
        if (dif == 0) {
          if (head.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
            std::optional<T> item(std::move(cell.item));
            cell.seq.store(pos + mask + 1, std::memory_order_seq_cst);
            return item;
          }
        } else if (dif < 0) {
          return std::nullopt;  // empty (or every ready item already claimed)
        } else {
          pos = head.load(std::memory_order_relaxed);
        }
      }
    }

    /// No item ready at head. seq_cst load so the drain handshake's
    /// reasoning stays inside the seq_cst total order.
    bool empty() const {
      const std::size_t pos = head.load(std::memory_order_seq_cst);
      const std::size_t seq = cells[pos & mask].seq.load(std::memory_order_seq_cst);
      return static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1) < 0;
    }

    std::unique_ptr<Cell[]> cells;
    std::size_t mask;
    alignas(64) std::atomic<std::size_t> tail{0};  // push cursor
    alignas(64) std::atomic<std::size_t> head{0};  // pop cursor
  };

  /// Publishes "state changed, re-check" to one side's sleepers: bump the
  /// epoch, then futex-wake. A waiter whose ticket predates the bump
  /// either re-scans after the bump (and sees the state change — the bump
  /// follows it in the seq_cst order) or reaches wait() with a stale
  /// ticket and returns immediately from the kernel's value check. The
  /// bump must come AFTER the state change it reports. Wake-one is sound
  /// for slot/item events because every woken waiter re-scans and every
  /// event wakes at least one registered waiter; close() wakes all.
  /// (The 32-bit epoch wraps after 2^32 wakes; a wrap-ABA would need
  /// exactly 2^32 bumps inside one register-to-wait window.)
  static void wake(std::atomic<std::uint32_t>& epoch, bool all) {
    epoch.fetch_add(1, std::memory_order_seq_cst);
    all ? epoch.notify_all() : epoch.notify_one();
  }

  /// One closed-checked pass over all shards starting at the caller's
  /// hashed shard. The pending_push_ bracket makes the accept-vs-close
  /// decision observable to drained(): while any producer is between its
  /// closed check and its ring publish, no consumer can conclude the
  /// queue is drained, so an accepted item can never be stranded.
  PushResult push_attempt(T& item) {
    pending_push_.fetch_add(1, std::memory_order_seq_cst);
    if (closed_.load(std::memory_order_seq_cst)) {
      pending_push_.fetch_sub(1, std::memory_order_seq_cst);
      // Releasing the bracket may have flipped drained() to true for a
      // consumer that observed our pending push and went to sleep
      // waiting for it to resolve; wake them to re-check.
      if (pop_waiters_.load(std::memory_order_seq_cst) > 0) {
        wake(pop_epoch_, /*all=*/true);
      }
      return PushResult::kClosed;
    }
    const std::size_t start = producer_hint();
    for (std::size_t i = 0; i <= shard_mask_; ++i) {
      if (shards_[(start + i) & shard_mask_]->try_push(item)) {
        if (i > 0) push_fallovers_.fetch_add(1, std::memory_order_relaxed);
        depth_.fetch_add(1, std::memory_order_relaxed);
        pushes_.fetch_add(1, std::memory_order_relaxed);
        pending_push_.fetch_sub(1, std::memory_order_seq_cst);
        // Wake one sleeping consumer, if any (Dekker partner of pop()'s
        // register-then-rescan).
        if (pop_waiters_.load(std::memory_order_seq_cst) > 0) {
          wake(pop_epoch_, /*all=*/false);
        }
        return PushResult::kOk;
      }
    }
    pending_push_.fetch_sub(1, std::memory_order_seq_cst);
    return PushResult::kFull;
  }

  /// Own-shard-first scan behind try_pop()/pop().
  std::optional<T> try_pop_impl(std::size_t who) {
    const std::size_t own = who & shard_mask_;
    for (std::size_t i = 0; i <= shard_mask_; ++i) {
      const std::size_t s = (own + i) & shard_mask_;
      if (std::optional<T> item = shards_[s]->try_pop()) {
        if (i > 0) pop_steals_.fetch_add(1, std::memory_order_relaxed);
        finish_pop();
        return item;
      }
    }
    return std::nullopt;
  }

  /// Successful-pop bookkeeping: depth gauge, counters, and the wakes a
  /// freed slot (or the last pop after close) owes to sleepers.
  void finish_pop() {
    depth_.fetch_sub(1, std::memory_order_relaxed);
    pops_.fetch_add(1, std::memory_order_relaxed);
    if (push_waiters_.load(std::memory_order_seq_cst) > 0) {
      wake(push_epoch_, /*all=*/false);
    }
    // After close, consumers may be sleeping not for an item but for
    // drained() to come true — and THIS pop (of the last item) may be
    // what flips it. Pre-close, pops never need to wake other poppers.
    if (closed_.load(std::memory_order_seq_cst) &&
        pop_waiters_.load(std::memory_order_seq_cst) > 0) {
      wake(pop_epoch_, /*all=*/true);
    }
  }

  /// Every accepted item has been handed out. Only meaningful after
  /// closed() was observed true: from then on push_attempt admits nothing
  /// new, so "no in-flight producers and all shards empty" is stable.
  bool drained() const {
    if (pending_push_.load(std::memory_order_seq_cst) != 0) return false;
    for (const auto& s : shards_) {
      if (!s->empty()) return false;
    }
    return true;
  }

  /// Stable per-thread starting shard: consecutive producer threads land
  /// on consecutive shards (golden-ratio hash of a birth ticket), so P
  /// producers spread across min(P, shards) cache lines.
  static std::size_t producer_hint() {
    static std::atomic<std::size_t> births{0};
    thread_local const std::size_t hint =
        births.fetch_add(1, std::memory_order_relaxed) * std::size_t{0x9E3779B97F4A7C15ULL} >> 32;
    return hint;
  }

  static std::size_t round_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  const std::size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> closed_{false};
  /// Producers between their closed check and their ring publish.
  std::atomic<std::size_t> pending_push_{0};
  std::atomic<std::int64_t> depth_{0};

  /// Slow path only: sleeps and close(). Never touched by a push or pop
  /// that finds room/work on the rings. The epochs are futex words
  /// (4-byte atomics take libstdc++'s direct FUTEX_WAIT path); waiter
  /// counts gate the wakes so the uncontended fast path never syscalls.
  std::atomic<std::uint32_t> push_epoch_{0};
  std::atomic<std::uint32_t> pop_epoch_{0};
  std::atomic<std::size_t> push_waiters_{0};
  std::atomic<std::size_t> pop_waiters_{0};

  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> pops_{0};
  std::atomic<std::uint64_t> push_fallovers_{0};
  std::atomic<std::uint64_t> pop_steals_{0};
  std::atomic<std::uint64_t> push_blocks_{0};
  std::atomic<std::uint64_t> pop_blocks_{0};
};

}  // namespace wavetune::api
