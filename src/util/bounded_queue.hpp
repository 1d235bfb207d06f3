// bounded_queue.hpp — bounded multi-producer / single-consumer FIFO.
//
// The shape a group-commit writer wants: producers block when the queue
// is at capacity (backpressure, instead of unbounded memory growth under
// a slow disk), and the single consumer drains *every* queued item in
// one call so a whole group shares one write + one flush.  push() hands
// back a monotone sequence number assigned in queue order; a consumer
// that counts drained items can therefore tell waiters exactly which
// prefix of the stream has been committed.  Its one user is the docdb
// journal writer (docdb/journal.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <vector>

namespace upin::util {

/// Bounded MPSC queue with group drain.  All operations are thread-safe;
/// pop_all() is intended for a single consumer (multiple consumers would
/// interleave groups, breaking the sequence-number contract).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Block until there is room (backpressure), then enqueue `item`.
  /// Returns the item's 1-based sequence number, or 0 if the queue was
  /// closed (the item is dropped).  When `stalled` is non-null it is set
  /// to whether the call found the queue full and had to wait — the
  /// signal the metrics layer counts as a backpressure stall.
  std::uint64_t push(T item, bool* stalled = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stalled != nullptr) {
      *stalled = !closed_ && items_.size() >= capacity_;
    }
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return 0;
    items_.push_back(std::move(item));
    const std::uint64_t seq = ++pushed_;
    lock.unlock();
    not_empty_.notify_one();
    return seq;
  }

  /// Block until at least one item is queued (or the queue is closed),
  /// then move the *entire* queue contents into `out` (cleared first).
  /// Returns false only when the queue is closed and fully drained.
  bool pop_all(std::vector<T>& out) {
    out.clear();
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    out.assign(std::make_move_iterator(items_.begin()),
               std::make_move_iterator(items_.end()));
    items_.clear();
    // Notify after releasing the lock: a woken producer can then acquire
    // the mutex immediately instead of bouncing off the notifier.
    lock.unlock();
    not_full_.notify_all();
    return true;
  }

  /// Reject further push() calls; pop_all() keeps returning until the
  /// remaining items are drained.  Wakes every blocked producer/consumer.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Total number of items ever accepted (= the sequence number of the
  /// most recently pushed item).
  [[nodiscard]] std::uint64_t pushed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::uint64_t pushed_ = 0;
  bool closed_ = false;
};

}  // namespace upin::util
