// Tests for util/rng: determinism, distribution sanity, forking.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace upin::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsDeterministicByLabel) {
  const Rng parent(7);
  Rng a = parent.fork("link:A-B");
  Rng b = parent.fork("link:A-B");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkDifferentLabelsDiverge) {
  const Rng parent(7);
  Rng a = parent.fork("x");
  Rng b = parent.fork("y");
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(9), b(9);
  (void)a.fork("anything");
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformMeanIsCentred) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const std::int64_t v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(13);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_EQ(rng.uniform_int(9, 3), 9);  // lo >= hi returns lo
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(29);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(rng.pareto(1.5, 2.0), 1.5);
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(31);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-2.0));  // clamped
    EXPECT_TRUE(rng.bernoulli(5.0));    // clamped
  }
}

/// The first draws of one fixed-seed stream, bit for bit, recorded from
/// the out-of-line implementation: moving the hot draws inline (or any
/// other rewrite) must leave every value, and how many words each call
/// consumes, unchanged.  Every `bernoulli` consumes exactly one draw, also
/// at p <= 0, p >= 1 and NaN (`std::clamp` passes NaN through, and no
/// draw is below NaN).
TEST(Rng, DrawsMatchRecordedStream) {
  const auto bits = [](double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
  };
  Rng rng(0x5C10'2023);
  for (const std::uint64_t expected :
       {0x3fdc89c4c9a3d678ULL, 0x3fb0a9e518643778ULL, 0x3fea4614a7987f30ULL,
        0x3fe499047aca2175ULL}) {
    EXPECT_EQ(bits(rng.uniform()), expected);
  }
  for (const std::uint64_t expected :
       {0xbffe93c4a4a75b39ULL, 0xc00162deec4e2439ULL, 0x401b1e117f16cd08ULL}) {
    EXPECT_EQ(bits(rng.uniform(-2.5, 7.25)), expected);
  }
  // Two Box–Muller pairs: cosine half, then the cached sine half.
  for (const std::uint64_t expected :
       {0xbfedb3a9dc3bb263ULL, 0xbfe889ec99e55c75ULL, 0x3fefcfff3b0a2895ULL,
        0x3fc63f0eea17f9edULL}) {
    EXPECT_EQ(bits(rng.normal()), expected);
  }
  for (const std::uint64_t expected :
       {0x3fe2cb01614cbe03ULL, 0x400f8db8c6a4700cULL, 0x400289a77561e297ULL}) {
    EXPECT_EQ(bits(rng.lognormal(0.3, 0.8)), expected);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, bool>> trials{
      {0.5, false}, {0.5, false}, {0.5, false}, {0.5, true},  {0.25, false},
      {0.75, true}, {0.9, false}, {0.1, false}, {-0.5, false}, {1.5, true},
      {nan, false}, {0.0, false}, {1.0, true}};
  for (const auto& [p, expected] : trials) {
    EXPECT_EQ(rng.bernoulli(p), expected) << "p=" << p;
  }
  EXPECT_EQ(rng.next(), 0x2dabd08ad07b390fULL);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(41);
  for (int i = 0; i < 10'000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(43);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, ShuffleEmptyAndSingleton) {
  Rng rng(47);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{9};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{9});
}

TEST(Fnv1a64, KnownValuesAndDistinctness) {
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

TEST(Fnv1a64, ExtendEqualsHashOfConcatenation) {
  const std::vector<std::string> parts = {
      "", "a", "ping:", "util:3>7:", "0-12-5-", ":", "caf\xc3\xa9 \xff\x01"};
  for (const std::string& a : parts) {
    for (const std::string& b : parts) {
      EXPECT_EQ(fnv1a64_extend(fnv1a64(a), b), fnv1a64(a + b))
          << '"' << a << "\" + \"" << b << '"';
    }
  }
}

TEST(Fnv1a64, ExtendByIntegerHashesItsDecimalDigits) {
  const std::vector<std::int64_t> values = {
      0, 1, -1, 9, -10, 59, 60, 1'234'567'890'123, -987'654'321,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (const std::string prefix : {"", "cong:4>9:", "ping:1-2-3-:"}) {
    for (const std::int64_t value : values) {
      EXPECT_EQ(fnv1a64_extend(fnv1a64(prefix), value),
                fnv1a64(prefix + std::to_string(value)))
          << prefix << value;
    }
  }
}

TEST(Fnv1a64, ExtendByDoubleHashesItsToStringText) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 64.0, 1500.0, 12.0, 150.0, 0.5, 1e-7, 5e-7,
      2.5e-6, 0.0000015, 123456.7890125, -98765.4321, 1e15, 1e300, -1e308,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      0.0078125, 0.0234375, -1.0078125,  // exact ties at the 7th decimal
      9007199254740991.0, -9007199254740992.0, -64.0};  // 2^53 - 1, -2^53
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.uniform(-1e4, 1e4));
    values.push_back(std::round(rng.uniform(0.0, 1e9)) / 1e6);
  }
  for (const std::string prefix : {"", "bwtest:1-2-:0:"}) {
    for (const double value : values) {
      EXPECT_EQ(fnv1a64_extend_fixed(fnv1a64(prefix), value),
                fnv1a64(prefix + std::to_string(value)))
          << prefix << std::to_string(value);
    }
  }
}

TEST(Rng, ForkHashedIsForkOfTheLabel) {
  const Rng parent(2023);
  for (const std::string label :
       {"", "x", "util:0>1:17", "ping:0-1-2-:-5", "bwtest:3-4-:0:1000.000000"}) {
    Rng by_label = parent.fork(label);
    Rng by_hash = parent.fork_hashed(fnv1a64(label));
    for (int i = 0; i < 8; ++i) EXPECT_EQ(by_label.next(), by_hash.next()) << label;
  }
}

TEST(Splitmix64, AdvancesState) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  EXPECT_NE(state, 0u);
}

}  // namespace
}  // namespace upin::util
