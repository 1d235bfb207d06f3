#include "measure/retry.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace upin::measure {

using util::ErrorCode;
using util::SimTime;

namespace {

/// Fault-recovery metrics.  All of these are driven by virtual-time logic
/// (backoff schedules, breaker cooldowns), so two fixed-seed runs produce
/// identical values — they are part of the determinism contract.
struct RecoveryMetrics {
  obs::Counter& retries;
  // Per-taxonomy-class retry counters ("retries by fault class").
  obs::Counter& retries_timeout;
  obs::Counter& retries_unreachable;
  obs::Counter& retries_garbled;
  obs::Counter& retries_storage;
  obs::Counter& retries_revoked;
  obs::Counter& retries_expired;
  obs::Counter& retries_other;
  obs::Counter& budget_exhausted;
  obs::Counter& breaker_opened;
  obs::Counter& breaker_half_open;
  obs::Counter& breaker_closed;
  obs::Counter& revocation_failovers;
  obs::LatencyHistogram& failover_latency_ms;

  static RecoveryMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static RecoveryMetrics metrics{
        registry.counter("upin_measure_retries_total"),
        registry.counter("upin_measure_retries_timeout_total"),
        registry.counter("upin_measure_retries_unreachable_total"),
        registry.counter("upin_measure_retries_garbled_total"),
        registry.counter("upin_measure_retries_storage_total"),
        registry.counter("upin_measure_retries_revoked_total"),
        registry.counter("upin_measure_retries_expired_total"),
        registry.counter("upin_measure_retries_other_total"),
        registry.counter("upin_measure_retry_budget_exhausted_total"),
        registry.counter("upin_measure_breaker_open_transitions_total"),
        registry.counter("upin_measure_breaker_half_open_probes_total"),
        registry.counter("upin_measure_breaker_close_transitions_total"),
        registry.counter("upin_measure_revocation_failover_total"),
        registry.histogram("upin_measure_failover_latency_ms", 0.0, 2000.0,
                           40),
    };
    return metrics;
  }

  [[nodiscard]] obs::Counter& retries_for(FaultKind kind) noexcept {
    switch (kind) {
      case FaultKind::kTimeout: return retries_timeout;
      case FaultKind::kUnreachable: return retries_unreachable;
      case FaultKind::kGarbled: return retries_garbled;
      case FaultKind::kStorage: return retries_storage;
      case FaultKind::kRevoked: return retries_revoked;
      case FaultKind::kExpired: return retries_expired;
      case FaultKind::kOther: return retries_other;
    }
    return retries_other;
  }
};

}  // namespace

void record_retry_attempt(ErrorCode code) noexcept {
  RecoveryMetrics& metrics = RecoveryMetrics::get();
  metrics.retries.add();
  metrics.retries_for(classify_fault(code)).add();
}

void record_retry_budget_exhausted() noexcept {
  RecoveryMetrics::get().budget_exhausted.add();
}

void record_revocation_failover(SimTime latency) noexcept {
  RecoveryMetrics& metrics = RecoveryMetrics::get();
  metrics.revocation_failovers.add();
  metrics.failover_latency_ms.observe(util::to_millis(latency));
}

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kUnreachable: return "unreachable";
    case FaultKind::kGarbled: return "garbled";
    case FaultKind::kStorage: return "storage";
    case FaultKind::kRevoked: return "revoked";
    case FaultKind::kExpired: return "expired";
    case FaultKind::kOther: return "other";
  }
  return "other";
}

FaultKind classify_fault(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kTimeout:
      return FaultKind::kTimeout;
    case ErrorCode::kUnreachable:
    case ErrorCode::kNotFound:
      return FaultKind::kUnreachable;
    case ErrorCode::kBadResponse:
      return FaultKind::kGarbled;
    case ErrorCode::kDataLoss:
    case ErrorCode::kConflict:
    case ErrorCode::kPermissionDenied:
      return FaultKind::kStorage;
    case ErrorCode::kRevoked:
      return FaultKind::kRevoked;
    case ErrorCode::kExpired:
      return FaultKind::kExpired;
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kParseError:
    case ErrorCode::kInternal:
      return FaultKind::kOther;
  }
  return FaultKind::kOther;
}

void FaultTaxonomy::record(FaultKind kind) noexcept {
  obs::Registry::global()
      .counter(std::string("upin_measure_faults_") + to_string(kind) +
               "_total")
      .add();
  switch (kind) {
    case FaultKind::kTimeout: ++timeouts; break;
    case FaultKind::kUnreachable: ++unreachable; break;
    case FaultKind::kGarbled: ++garbled; break;
    case FaultKind::kStorage: ++storage; break;
    case FaultKind::kRevoked: ++revoked; break;
    case FaultKind::kExpired: ++expired; break;
    case FaultKind::kOther: ++other; break;
  }
}

double RetryPolicy::backoff_s(int attempt, util::Rng& rng) const {
  const double exponent = static_cast<double>(std::max(attempt, 1) - 1);
  double backoff = initial_backoff_s * std::pow(backoff_multiplier, exponent);
  backoff = std::min(backoff, max_backoff_s);
  if (jitter_frac > 0.0) {
    backoff *= rng.uniform(1.0 - jitter_frac, 1.0 + jitter_frac);
  }
  return std::max(backoff, 0.0);
}

bool RetryPolicy::retryable(ErrorCode code) noexcept {
  switch (classify_fault(code)) {
    case FaultKind::kTimeout:
    case FaultKind::kUnreachable:
    case FaultKind::kGarbled:
      return true;
    case FaultKind::kStorage:
    case FaultKind::kOther:
      return false;
    case FaultKind::kRevoked:
    case FaultKind::kExpired:
      // The control plane *knows* the path is dead; a backoff-scale wait
      // rarely outlives the revocation.  Fail over instead of retrying.
      return false;
  }
  return false;
}

CircuitBreaker::State CircuitBreaker::state(SimTime now) const noexcept {
  if (!open_) return State::kClosed;
  const double waited = util::to_seconds(now - opened_at_);
  return waited >= policy_.cooldown_s ? State::kHalfOpen : State::kOpen;
}

bool CircuitBreaker::allow(SimTime now) noexcept {
  if (!policy_.enabled) return true;
  switch (state(now)) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return false;
    case State::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      RecoveryMetrics::get().breaker_half_open.add();
      return true;
  }
  return true;
}

void CircuitBreaker::record_success() noexcept {
  if (open_) RecoveryMetrics::get().breaker_closed.add();
  consecutive_failures_ = 0;
  open_ = false;
  probe_in_flight_ = false;
}

void CircuitBreaker::record_failure(SimTime now) noexcept {
  if (!policy_.enabled) return;
  if (probe_in_flight_) {
    // The half-open probe failed: re-open for another cooldown.
    probe_in_flight_ = false;
    open_ = true;
    opened_at_ = now;
    ++trips_;
    RecoveryMetrics::get().breaker_opened.add();
    return;
  }
  ++consecutive_failures_;
  if (!open_ && consecutive_failures_ >= policy_.trip_threshold) {
    open_ = true;
    opened_at_ = now;
    ++trips_;
    RecoveryMetrics::get().breaker_opened.add();
  }
}

void CircuitBreaker::restore(int consecutive_failures, bool open,
                             SimTime opened_at) noexcept {
  consecutive_failures_ = consecutive_failures;
  open_ = open;
  opened_at_ = opened_at;
  probe_in_flight_ = false;
}

}  // namespace upin::measure
