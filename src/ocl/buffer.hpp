// Simulated device buffer.
//
// A Buffer owns host-side backing storage standing in for device global
// memory. Functional kernel payloads read and write this storage directly,
// so data placement mistakes (missing transfer, stale halo) show up as
// wrong values, not just wrong timings.
//
// Every Buffer also participates in process-wide residency accounting:
// live_bytes() is the sum of all live buffers' sizes (bytes in use, not
// capacity: a pooled buffer reset to size 0 counts nothing while idle)
// and peak_bytes() the high-water mark since the last reset_peak(). The
// streaming-strip tests assert through these counters that an out-of-core
// run's device footprint stays at O(strip_rows x dim) instead of O(dim^2).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

namespace wavetune::ocl {

class Buffer {
public:
  Buffer() = default;
  explicit Buffer(std::size_t bytes) : storage_(bytes) { account(0, storage_.size()); }
  ~Buffer() { account(storage_.size(), 0); }

  Buffer(const Buffer& other) : storage_(other.storage_) { account(0, storage_.size()); }
  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      const std::size_t old = storage_.size();
      storage_ = other.storage_;
      account(old, storage_.size());
    }
    return *this;
  }
  Buffer(Buffer&& other) noexcept : storage_(std::move(other.storage_)) {
    // Accounting responsibility moves with the storage: no net change.
    other.storage_.clear();
    other.storage_.shrink_to_fit();
  }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      const std::size_t old = storage_.size();
      storage_ = std::move(other.storage_);
      other.storage_.clear();
      other.storage_.shrink_to_fit();
      account(old, 0);  // the moved-in bytes stay accounted from `other`'s ctor
    }
    return *this;
  }

  std::size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }
  /// Bytes the buffer can hold without reallocating.
  std::size_t capacity() const { return storage_.capacity(); }

  /// Resizes to `bytes`, every byte set to `value`, reusing the capacity
  /// already held: a pooled buffer is re-poisoned without reallocating,
  /// and reset(0) idles it at zero live bytes while keeping its capacity.
  void reset(std::size_t bytes, std::byte value = std::byte{0}) {
    const std::size_t old = storage_.size();
    storage_.assign(bytes, value);
    account(old, storage_.size());
  }

  std::byte* data() { return storage_.data(); }
  const std::byte* data() const { return storage_.data(); }

  std::span<std::byte> bytes() { return storage_; }
  std::span<const std::byte> bytes() const { return storage_; }

  /// Host-side memcpy helpers with bounds checking (throw std::out_of_range).
  void write(std::size_t offset, const void* src, std::size_t n);
  void read(std::size_t offset, void* dst, std::size_t n) const;

  /// Process-wide residency accounting across ALL live Buffers.
  static std::size_t live_bytes() { return live_.load(std::memory_order_relaxed); }
  static std::size_t peak_bytes() { return peak_.load(std::memory_order_relaxed); }
  /// Resets the high-water mark to the current live total.
  static void reset_peak() {
    peak_.store(live_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }

private:
  static void account(std::size_t old_bytes, std::size_t new_bytes) {
    if (old_bytes == new_bytes) return;
    if (new_bytes > old_bytes) {
      const std::size_t grown = new_bytes - old_bytes;
      const std::size_t now = live_.fetch_add(grown, std::memory_order_relaxed) + grown;
      std::size_t seen = peak_.load(std::memory_order_relaxed);
      while (seen < now &&
             !peak_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
      }
    } else {
      live_.fetch_sub(old_bytes - new_bytes, std::memory_order_relaxed);
    }
  }

  static std::atomic<std::size_t> live_;
  static std::atomic<std::size_t> peak_;

  std::vector<std::byte> storage_;
};

}  // namespace wavetune::ocl
