// retry.hpp — the campaign's fault-recovery policy layer.
//
// The seed engine logged-and-skipped every failed operation (§4.1.2's
// minimum bar).  This layer upgrades that to a first-class fault story:
//
//   * classify_fault()  — maps every ErrorCode into the four-way taxonomy
//                         the paper's fault classes suggest (timeout /
//                         unreachable / garbled / storage);
//   * RetryPolicy       — bounded attempts with exponential backoff and
//                         deterministic jitter, all in *virtual* time so a
//                         retried campaign stays bit-reproducible;
//   * CircuitBreaker    — per-destination: after enough consecutive
//                         post-retry failures, stop hammering a dark
//                         server and degrade to partial results, probing
//                         again after a cooldown (half-open).
//
// Everything here is deterministic given the virtual clock: backoff jitter
// is keyed by (operation label, attempt, virtual time), never by wall
// time or hidden mutable state, which is what lets a crashed campaign
// resume mid-stream and still produce the identical document set.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "util/clock.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace upin::measure {

/// The campaign-level fault taxonomy (paper §4.1.2 fault classes, plus
/// the control-plane lifetime classes introduced with path revocation).
enum class FaultKind {
  kTimeout,      ///< operation exhausted its time budget
  kUnreachable,  ///< destination down / no path
  kGarbled,      ///< server answered with garbage
  kStorage,      ///< database / journal write failed
  kRevoked,      ///< path revoked by the control plane before/ during use
  kExpired,      ///< path lifetime elapsed without re-beaconing
  kOther,        ///< anything else (argument errors, internal bugs)
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// Coarse ErrorCode -> taxonomy mapping.
[[nodiscard]] FaultKind classify_fault(util::ErrorCode code) noexcept;

/// The control plane killed the path (revoked or expired).  That is an
/// authoritative fact about the path, not evidence that the destination
/// is failing: it must not burn circuit-breaker budget.
[[nodiscard]] inline bool control_plane_death(
    const util::Error& error) noexcept {
  return error.code == util::ErrorCode::kRevoked ||
         error.code == util::ErrorCode::kExpired;
}

/// Per-category failure counters, reported in TestSuiteProgress.
struct FaultTaxonomy {
  std::size_t timeouts = 0;
  std::size_t unreachable = 0;
  std::size_t garbled = 0;
  std::size_t storage = 0;
  std::size_t revoked = 0;
  std::size_t expired = 0;
  std::size_t other = 0;

  void record(FaultKind kind) noexcept;
  [[nodiscard]] std::size_t total() const noexcept {
    return timeouts + unreachable + garbled + storage + revoked + expired +
           other;
  }
  bool operator==(const FaultTaxonomy&) const = default;
};

/// Bounded-retry policy with exponential backoff in virtual time.
struct RetryPolicy {
  bool enabled = true;
  int max_attempts = 3;            ///< total tries, including the first
  double initial_backoff_s = 0.5;  ///< sleep before the second attempt
  double backoff_multiplier = 2.0;
  double max_backoff_s = 8.0;
  double jitter_frac = 0.2;        ///< backoff scaled by U[1-j, 1+j]
  double timeout_budget_s = 90.0;  ///< virtual-time ceiling per operation

  /// Backoff before attempt `attempt + 1` (attempt >= 1), jittered by
  /// `rng` and clamped to max_backoff_s.
  [[nodiscard]] double backoff_s(int attempt, util::Rng& rng) const;

  /// Transient failures worth retrying.  Argument, permission and parse
  /// errors are deterministic: retrying cannot help.
  [[nodiscard]] static bool retryable(util::ErrorCode code) noexcept;
};

/// Counters a retried operation feeds back to the campaign.
struct RetryStats {
  std::size_t retries = 0;           ///< re-attempts performed
  std::size_t budget_exhausted = 0;  ///< operations cut off by the budget
  bool operator==(const RetryStats&) const = default;
};

// Global-registry hooks for the retry loop, out-of-line so the template
// below does not pull the metrics layer into every includer.
void record_retry_attempt(util::ErrorCode code) noexcept;
void record_retry_budget_exhausted() noexcept;

/// A controller moved traffic off a revoked path onto a live alternative
/// without burning retry/breaker budget.  `latency` is how long traffic
/// stayed on the dead path after its revocation was delivered.
void record_revocation_failover(util::SimTime latency) noexcept;

/// Run `op` under `policy` on the shared virtual clock.  Failed transient
/// attempts back off (advancing the clock) and retry; the final attempt's
/// error is returned unchanged.  Jitter is keyed by (label, attempt,
/// now), so the schedule is a pure function of virtual time.
template <typename T>
[[nodiscard]] util::Result<T> run_with_retry(
    const RetryPolicy& policy, util::VirtualClock& clock,
    std::string_view label, RetryStats& stats,
    const std::function<util::Result<T>()>& op) {
  const util::SimTime start = clock.now();
  for (int attempt = 1;; ++attempt) {
    util::Result<T> result = op();
    if (result.ok()) return result;
    if (!policy.enabled || attempt >= policy.max_attempts ||
        !RetryPolicy::retryable(result.error().code)) {
      return result;
    }
    util::Rng jitter_rng(util::fnv1a64(label) ^
                         (static_cast<std::uint64_t>(attempt) *
                          std::uint64_t{0x9E3779B9}) ^
                         static_cast<std::uint64_t>(clock.now().count()));
    const double backoff = policy.backoff_s(attempt, jitter_rng);
    const double spent = util::to_seconds(clock.now() - start);
    if (spent + backoff > policy.timeout_budget_s) {
      ++stats.budget_exhausted;
      record_retry_budget_exhausted();
      return result;
    }
    clock.advance(util::sim_seconds(backoff));
    ++stats.retries;
    record_retry_attempt(result.error().code);
  }
}

/// Per-destination circuit breaker tuning.
struct CircuitBreakerPolicy {
  bool enabled = true;
  int trip_threshold = 5;     ///< consecutive post-retry failures to open
  double cooldown_s = 600.0;  ///< open -> half-open after this much virtual time
};

/// Classic three-state breaker driven by the virtual clock.
///
///   closed    — operations flow; consecutive failures are counted.
///   open      — operations are skipped until the cooldown elapses.
///   half-open — one probe operation is let through; success closes the
///               breaker, failure re-opens it for another cooldown.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  explicit CircuitBreaker(CircuitBreakerPolicy policy) : policy_(policy) {}

  [[nodiscard]] State state(util::SimTime now) const noexcept;

  /// May an operation proceed at `now`?  In half-open state only the
  /// first caller gets through until its outcome is recorded.
  [[nodiscard]] bool allow(util::SimTime now) noexcept;

  void record_success() noexcept;
  void record_failure(util::SimTime now) noexcept;

  [[nodiscard]] std::size_t trips() const noexcept { return trips_; }
  [[nodiscard]] int consecutive_failures() const noexcept {
    return consecutive_failures_;
  }

  /// Snapshot / restore for campaign checkpointing: the breaker's whole
  /// observable state as (consecutive_failures, open, opened_at).
  [[nodiscard]] bool is_open() const noexcept { return open_; }
  [[nodiscard]] util::SimTime opened_at() const noexcept { return opened_at_; }
  void restore(int consecutive_failures, bool open,
               util::SimTime opened_at) noexcept;

 private:
  CircuitBreakerPolicy policy_{};
  int consecutive_failures_ = 0;
  bool open_ = false;
  bool probe_in_flight_ = false;
  util::SimTime opened_at_{};
  std::size_t trips_ = 0;
};

}  // namespace upin::measure
