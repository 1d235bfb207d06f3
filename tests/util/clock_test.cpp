// Tests for util/clock.
#include "util/clock.hpp"

#include <gtest/gtest.h>

namespace upin::util {
namespace {

TEST(SimTimeConversions, RoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(sim_seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_millis(sim_millis(12.25)), 12.25);
  EXPECT_DOUBLE_EQ(to_millis(sim_seconds(1.0)), 1000.0);
}

TEST(Stopwatch, ElapsedNeverRunsBackwards) {
  const Stopwatch watch;
  const std::chrono::nanoseconds first = watch.elapsed();
  const std::chrono::nanoseconds second = watch.elapsed();
  EXPECT_GE(first.count(), 0);
  EXPECT_GE(second, first);
  EXPECT_GE(watch.seconds(), std::chrono::duration<double>(second).count());
}

TEST(VirtualClock, StartsAtZero) {
  const VirtualClock clock;
  EXPECT_EQ(clock.now(), SimTime::zero());
}

TEST(VirtualClock, AdvanceAccumulates) {
  VirtualClock clock;
  clock.advance(sim_seconds(3.0));
  clock.advance(sim_millis(500));
  EXPECT_DOUBLE_EQ(to_seconds(clock.now()), 3.5);
}

TEST(VirtualClock, NegativeAdvanceIgnored) {
  VirtualClock clock;
  clock.advance(sim_seconds(1.0));
  clock.advance(SimDuration(-500));
  EXPECT_DOUBLE_EQ(to_seconds(clock.now()), 1.0);
}

TEST(VirtualClock, AdvanceToIsMonotone) {
  VirtualClock clock;
  clock.advance_to(sim_seconds(5.0));
  EXPECT_DOUBLE_EQ(to_seconds(clock.now()), 5.0);
  clock.advance_to(sim_seconds(2.0));  // in the past: no-op
  EXPECT_DOUBLE_EQ(to_seconds(clock.now()), 5.0);
}

TEST(VirtualClock, Reset) {
  VirtualClock clock;
  clock.advance(sim_seconds(9.0));
  clock.reset();
  EXPECT_EQ(clock.now(), SimTime::zero());
}

TEST(TimestampToken, ZeroPaddedMilliseconds) {
  EXPECT_EQ(timestamp_token(sim_seconds(12.0)), "000000012000");
  EXPECT_EQ(timestamp_token(SimTime::zero()), "000000000000");
}

TEST(TimestampToken, SortsLexicallyLikeNumerically) {
  EXPECT_LT(timestamp_token(sim_seconds(2.0)), timestamp_token(sim_seconds(10.0)));
  EXPECT_LT(timestamp_token(sim_millis(999)), timestamp_token(sim_seconds(1.0)));
}

}  // namespace
}  // namespace upin::util
