// Tests for measure/retry: fault taxonomy, backoff schedule, the
// run_with_retry driver on the virtual clock, and the circuit breaker's
// three-state lifecycle (including checkpoint restore).
#include "measure/retry.hpp"

#include <gtest/gtest.h>

#include "util/clock.hpp"

namespace upin::measure {
namespace {

using util::ErrorCode;
using util::Result;
using util::sim_seconds;
using util::SimTime;
using util::VirtualClock;

TEST(ClassifyFault, CoversEveryErrorCode) {
  EXPECT_EQ(classify_fault(ErrorCode::kTimeout), FaultKind::kTimeout);
  EXPECT_EQ(classify_fault(ErrorCode::kUnreachable), FaultKind::kUnreachable);
  EXPECT_EQ(classify_fault(ErrorCode::kNotFound), FaultKind::kUnreachable);
  EXPECT_EQ(classify_fault(ErrorCode::kBadResponse), FaultKind::kGarbled);
  EXPECT_EQ(classify_fault(ErrorCode::kDataLoss), FaultKind::kStorage);
  EXPECT_EQ(classify_fault(ErrorCode::kConflict), FaultKind::kStorage);
  EXPECT_EQ(classify_fault(ErrorCode::kPermissionDenied), FaultKind::kStorage);
  EXPECT_EQ(classify_fault(ErrorCode::kRevoked), FaultKind::kRevoked);
  EXPECT_EQ(classify_fault(ErrorCode::kExpired), FaultKind::kExpired);
  EXPECT_EQ(classify_fault(ErrorCode::kInvalidArgument), FaultKind::kOther);
  EXPECT_EQ(classify_fault(ErrorCode::kParseError), FaultKind::kOther);
  EXPECT_EQ(classify_fault(ErrorCode::kInternal), FaultKind::kOther);
}

TEST(FaultTaxonomyCounters, RecordAndTotal) {
  FaultTaxonomy taxonomy;
  EXPECT_EQ(taxonomy.total(), 0u);
  taxonomy.record(FaultKind::kTimeout);
  taxonomy.record(FaultKind::kTimeout);
  taxonomy.record(FaultKind::kUnreachable);
  taxonomy.record(FaultKind::kGarbled);
  taxonomy.record(FaultKind::kStorage);
  taxonomy.record(FaultKind::kRevoked);
  taxonomy.record(FaultKind::kRevoked);
  taxonomy.record(FaultKind::kExpired);
  taxonomy.record(FaultKind::kOther);
  EXPECT_EQ(taxonomy.timeouts, 2u);
  EXPECT_EQ(taxonomy.unreachable, 1u);
  EXPECT_EQ(taxonomy.garbled, 1u);
  EXPECT_EQ(taxonomy.storage, 1u);
  EXPECT_EQ(taxonomy.revoked, 2u);
  EXPECT_EQ(taxonomy.expired, 1u);
  EXPECT_EQ(taxonomy.other, 1u);
  EXPECT_EQ(taxonomy.total(), 9u);
}

TEST(FaultKindNames, AreStable) {
  EXPECT_STREQ(to_string(FaultKind::kTimeout), "timeout");
  EXPECT_STREQ(to_string(FaultKind::kUnreachable), "unreachable");
  EXPECT_STREQ(to_string(FaultKind::kGarbled), "garbled");
  EXPECT_STREQ(to_string(FaultKind::kStorage), "storage");
  EXPECT_STREQ(to_string(FaultKind::kRevoked), "revoked");
  EXPECT_STREQ(to_string(FaultKind::kExpired), "expired");
  EXPECT_STREQ(to_string(FaultKind::kOther), "other");
}

TEST(RetryPolicyBackoff, GrowsExponentiallyWithoutJitter) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.5;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 3.0;
  policy.jitter_frac = 0.0;
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.backoff_s(1, rng), 0.5);
  EXPECT_DOUBLE_EQ(policy.backoff_s(2, rng), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(3, rng), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(4, rng), 3.0) << "clamped to max";
  EXPECT_DOUBLE_EQ(policy.backoff_s(10, rng), 3.0);
}

TEST(RetryPolicyBackoff, JitterStaysWithinBand) {
  RetryPolicy policy;
  policy.initial_backoff_s = 1.0;
  policy.jitter_frac = 0.2;
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double backoff = policy.backoff_s(1, rng);
    EXPECT_GE(backoff, 0.8);
    EXPECT_LE(backoff, 1.2);
  }
}

TEST(RetryPolicyBackoff, RetryableOnlyForTransientFaults) {
  EXPECT_TRUE(RetryPolicy::retryable(ErrorCode::kTimeout));
  EXPECT_TRUE(RetryPolicy::retryable(ErrorCode::kUnreachable));
  EXPECT_TRUE(RetryPolicy::retryable(ErrorCode::kBadResponse));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::kPermissionDenied));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::kParseError));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::kDataLoss));
  // Control-plane verdicts are authoritative: failing over beats waiting.
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::kRevoked));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::kExpired));
}

TEST(RunWithRetry, SuccessOnFirstAttemptLeavesClockAlone) {
  RetryPolicy policy;
  VirtualClock clock;
  RetryStats stats;
  int calls = 0;
  const Result<int> result = run_with_retry<int>(
      policy, clock, "op", stats, [&]() -> Result<int> {
        ++calls;
        return 7;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(clock.now(), SimTime::zero());
}

TEST(RunWithRetry, TransientFailureRetriesAndAdvancesClock) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.jitter_frac = 0.0;
  VirtualClock clock;
  RetryStats stats;
  int calls = 0;
  const Result<int> result = run_with_retry<int>(
      policy, clock, "op", stats, [&]() -> Result<int> {
        ++calls;
        if (calls < 3) {
          return util::Error{ErrorCode::kTimeout, "transient"};
        }
        return 99;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retries, 2u);
  // 0.5 s + 1.0 s of deterministic backoff.
  EXPECT_EQ(clock.now(), sim_seconds(1.5));
}

TEST(RunWithRetry, NonRetryableErrorReturnsImmediately) {
  RetryPolicy policy;
  VirtualClock clock;
  RetryStats stats;
  int calls = 0;
  const Result<int> result = run_with_retry<int>(
      policy, clock, "op", stats, [&]() -> Result<int> {
        ++calls;
        return util::Error{ErrorCode::kInvalidArgument, "bad args"};
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(clock.now(), SimTime::zero());
}

TEST(RunWithRetry, ExhaustsAttemptsAndReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  VirtualClock clock;
  RetryStats stats;
  int calls = 0;
  const Result<int> result = run_with_retry<int>(
      policy, clock, "op", stats, [&]() -> Result<int> {
        ++calls;
        return util::Error{ErrorCode::kUnreachable, "still down"};
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnreachable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retries, 2u);
}

TEST(RunWithRetry, DisabledPolicyNeverRetries) {
  RetryPolicy policy;
  policy.enabled = false;
  VirtualClock clock;
  RetryStats stats;
  int calls = 0;
  const Result<int> result = run_with_retry<int>(
      policy, clock, "op", stats, [&]() -> Result<int> {
        ++calls;
        return util::Error{ErrorCode::kTimeout, "slow"};
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(RunWithRetry, BudgetCutsOffLongBackoffs) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_s = 10.0;
  policy.backoff_multiplier = 1.0;
  policy.max_backoff_s = 10.0;
  policy.jitter_frac = 0.0;
  policy.timeout_budget_s = 25.0;  // fits two 10 s backoffs, not three
  VirtualClock clock;
  RetryStats stats;
  int calls = 0;
  const Result<int> result = run_with_retry<int>(
      policy, clock, "op", stats, [&]() -> Result<int> {
        ++calls;
        return util::Error{ErrorCode::kTimeout, "slow"};
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.budget_exhausted, 1u);
  EXPECT_EQ(clock.now(), sim_seconds(20.0));
}

TEST(RunWithRetry, JitterIsDeterministicForSameLabelAndClock) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  VirtualClock clock_a, clock_b;
  RetryStats stats_a, stats_b;
  const auto failing = [](int& calls) {
    return [&calls]() -> Result<int> {
      ++calls;
      return util::Error{ErrorCode::kTimeout, "slow"};
    };
  };
  int calls_a = 0, calls_b = 0;
  (void)run_with_retry<int>(policy, clock_a, "op-x", stats_a,
                            failing(calls_a));
  (void)run_with_retry<int>(policy, clock_b, "op-x", stats_b,
                            failing(calls_b));
  EXPECT_EQ(clock_a.now(), clock_b.now())
      << "identical (label, clock) must replay the identical schedule";
  EXPECT_GT(clock_a.now(), SimTime::zero());
}

// ---------------------------------------------------------------------------
// Circuit breaker lifecycle.
// ---------------------------------------------------------------------------

TEST(Breaker, OpensAfterThresholdConsecutiveFailures) {
  CircuitBreakerPolicy policy;
  policy.trip_threshold = 3;
  CircuitBreaker breaker(policy);
  const SimTime now = sim_seconds(100);
  EXPECT_TRUE(breaker.allow(now));
  breaker.record_failure(now);
  breaker.record_failure(now);
  EXPECT_TRUE(breaker.allow(now)) << "still closed below threshold";
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kClosed);
  breaker.record_failure(now);
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(now));
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(Breaker, SuccessResetsTheFailureStreak) {
  CircuitBreakerPolicy policy;
  policy.trip_threshold = 3;
  CircuitBreaker breaker(policy);
  const SimTime now = sim_seconds(0);
  breaker.record_failure(now);
  breaker.record_failure(now);
  breaker.record_success();
  breaker.record_failure(now);
  breaker.record_failure(now);
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(Breaker, HalfOpenAdmitsOneProbeThatCloses) {
  CircuitBreakerPolicy policy;
  policy.trip_threshold = 1;
  policy.cooldown_s = 60.0;
  CircuitBreaker breaker(policy);
  breaker.record_failure(sim_seconds(0));
  EXPECT_FALSE(breaker.allow(sim_seconds(30))) << "still cooling down";
  const SimTime later = sim_seconds(61);
  EXPECT_EQ(breaker.state(later), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(later)) << "first caller gets the probe";
  EXPECT_FALSE(breaker.allow(later)) << "second caller must wait";
  breaker.record_success();
  EXPECT_EQ(breaker.state(later), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(later));
}

TEST(Breaker, FailedProbeReopensForAnotherCooldown) {
  CircuitBreakerPolicy policy;
  policy.trip_threshold = 1;
  policy.cooldown_s = 60.0;
  CircuitBreaker breaker(policy);
  breaker.record_failure(sim_seconds(0));
  const SimTime probe_at = sim_seconds(61);
  ASSERT_TRUE(breaker.allow(probe_at));
  breaker.record_failure(probe_at);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_EQ(breaker.state(sim_seconds(90)), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(sim_seconds(90)));
  EXPECT_EQ(breaker.state(sim_seconds(122)), CircuitBreaker::State::kHalfOpen);
}

TEST(Breaker, DisabledPolicyAlwaysAllows) {
  CircuitBreakerPolicy policy;
  policy.enabled = false;
  policy.trip_threshold = 1;
  CircuitBreaker breaker(policy);
  breaker.record_failure(sim_seconds(0));
  breaker.record_failure(sim_seconds(0));
  EXPECT_TRUE(breaker.allow(sim_seconds(0)));
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(Breaker, RestoreReproducesCheckpointedState) {
  CircuitBreakerPolicy policy;
  policy.trip_threshold = 5;
  policy.cooldown_s = 600.0;
  CircuitBreaker original(policy);
  for (int i = 0; i < 5; ++i) original.record_failure(sim_seconds(100));
  ASSERT_TRUE(original.is_open());

  CircuitBreaker resumed(policy);
  resumed.restore(original.consecutive_failures(), original.is_open(),
                  original.opened_at());
  EXPECT_EQ(resumed.state(sim_seconds(150)), original.state(sim_seconds(150)));
  EXPECT_EQ(resumed.state(sim_seconds(800)), original.state(sim_seconds(800)));
  EXPECT_EQ(resumed.allow(sim_seconds(150)), false);
}

}  // namespace
}  // namespace upin::measure
