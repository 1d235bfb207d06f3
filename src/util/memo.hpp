// memo.hpp — a lazily filled, thread-safe memo for a pure function.
//
// Several models here are pure functions of their construction inputs
// that the hot path asks again and again with the same arguments: segment
// combination per AS pair, a fault schedule per node or link.  A Memo
// keeps each key's answer after its first computation.
#pragma once

#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace upin::util {

/// Each key's value, computed on first use and kept.  Safe to call from
/// several threads at once: the map is read and written under the lock,
/// the value is computed outside it, so two threads racing on one key may
/// both compute it; the first to store wins and both return the stored
/// value.  Entries are never erased, so a returned reference stays valid
/// until the memo is assigned to or destroyed.  A copy starts empty (the
/// function is pure, so it recomputes the same values on demand), and
/// assignment empties the target: its owner's inputs may have changed.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class Memo {
 public:
  Memo() = default;
  Memo(const Memo& /*other*/) {}
  Memo& operator=(const Memo& other) {
    if (this != &other) {
      const std::lock_guard<std::mutex> lock(mutex_);
      map_.clear();
    }
    return *this;
  }

  /// The value for `key`: the kept one, or `compute()` kept from now on.
  template <typename Compute>
  const Value& get(const Key& key, Compute&& compute) const {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = map_.find(key);
      if (it != map_.end()) return it->second;
    }
    Value value = std::forward<Compute>(compute)();
    const std::lock_guard<std::mutex> lock(mutex_);
    return map_.try_emplace(key, std::move(value)).first->second;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::unordered_map<Key, Value, Hash> map_;
};

}  // namespace upin::util
