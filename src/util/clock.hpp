// clock.hpp — virtual time for deterministic measurement campaigns.
//
// The paper's measurements were taken over wall-clock hours on a live
// testbed; consecutive path tests share a timeline, which matters for the
// Fig 9 congestion-episode result.  We reproduce that timeline in virtual
// time so a full survey is instantaneous yet ordering-faithful.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace upin::util {

/// Virtual time point: nanoseconds since the start of the experiment.
using SimTime = std::chrono::nanoseconds;
using SimDuration = std::chrono::nanoseconds;

[[nodiscard]] constexpr SimTime sim_seconds(double seconds) noexcept {
  return SimTime(static_cast<std::int64_t>(seconds * 1e9));
}
[[nodiscard]] constexpr SimTime sim_millis(double millis) noexcept {
  return SimTime(static_cast<std::int64_t>(millis * 1e6));
}
[[nodiscard]] constexpr double to_seconds(SimTime t) noexcept {
  return static_cast<double>(t.count()) / 1e9;
}
[[nodiscard]] constexpr double to_millis(SimTime t) noexcept {
  return static_cast<double>(t.count()) / 1e6;
}

/// A monotonically advancing virtual clock.  All components of one
/// experiment share a single VirtualClock instance.
class VirtualClock {
 public:
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Advance the clock; `delta` must be non-negative.
  void advance(SimDuration delta) noexcept {
    if (delta.count() > 0) now_ += delta;
  }

  /// Jump forward to `target` if it is in the future.
  void advance_to(SimTime target) noexcept {
    if (target > now_) now_ = target;
  }

  void reset() noexcept { now_ = SimTime::zero(); }

 private:
  SimTime now_ = SimTime::zero();
};

/// Wall-clock interval timer, started at construction.  Its readings
/// are outside the virtual-time determinism contract: they differ from
/// run to run, so nothing journaled, rendered or compared across runs
/// may depend on them.  For bench timings and wall-time reports only.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] std::chrono::nanoseconds elapsed() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start_);
  }
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(elapsed()).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Render a virtual timestamp as a compact sortable token, used in
/// paths_stats document ids (`<path_id>_<timestamp>` per paper Fig 3).
[[nodiscard]] std::string timestamp_token(SimTime t);

}  // namespace upin::util
