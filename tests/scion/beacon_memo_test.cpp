// Memo-vs-fresh oracle for Beaconing::paths: one Beaconing answers every
// (src, dst) pair of a random topology twice, in shuffled order, and
// every answer must equal what a fresh Beaconing answers on its first
// call for that pair — the same paths in the same order, each with its
// hops and interfaces, MTU, static latency and lifetime.  A memo keyed on
// less than the whole pair, or one that hands out an answer it later
// changes, fails here.  Every call for a pair must also return the same
// kept answer, at the same address: the path cache serves it by
// reference.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scion/beacon.hpp"
#include "support/random_topology.hpp"
#include "util/rng.hpp"

namespace upin::scion {
namespace {

constexpr std::uint64_t kTopologies = 40;

/// Every ordered pair of the topology's ASes (src == dst included: an
/// empty answer), plus pairs with an AS the topology does not know.
std::vector<AsPair> all_pairs(const Topology& topology) {
  std::vector<AsPair> pairs;
  for (const AsInfo& src : topology.ases()) {
    for (const AsInfo& dst : topology.ases()) pairs.emplace_back(src.ia, dst.ia);
  }
  const IsdAsn unknown(9, 9);
  pairs.emplace_back(topology.ases().front().ia, unknown);
  pairs.emplace_back(unknown, topology.ases().front().ia);
  return pairs;
}

/// Each pair's answer from a Beaconing that has answered nothing before.
std::vector<std::vector<Path>> fresh_answers(const Topology& topology,
                                             const std::vector<AsPair>& pairs) {
  std::vector<std::vector<Path>> answers;
  answers.reserve(pairs.size());
  for (const auto& [src, dst] : pairs) {
    const Beaconing fresh(topology);
    answers.push_back(fresh.paths(src, dst));
  }
  return answers;
}

/// Empty when `got` equals `want` field for field, else what differs.
std::string difference(const std::vector<Path>& got,
                       const std::vector<Path>& want) {
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " paths, want " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Path equality covers hops with interfaces, MTU, static latency,
    // status and lifetime.
    if (!(got[i] == want[i])) {
      return "path " + std::to_string(i) + ": " + got[i].sequence() + " vs " +
             want[i].sequence();
    }
  }
  return {};
}

TEST(BeaconingMemo, RepeatedShuffledQueriesEqualFreshCombination) {
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 1; seed <= kTopologies; ++seed) {
    util::Rng rng(seed);
    const Topology topology = test_support::random_topology(rng);
    ASSERT_TRUE(topology.validate().ok()) << "seed " << seed;
    const std::vector<AsPair> pairs = all_pairs(topology);
    const std::vector<std::vector<Path>> want = fresh_answers(topology, pairs);

    const Beaconing memo(topology);
    std::vector<std::size_t> order(pairs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (int pass = 0; pass < 2; ++pass) {
      rng.shuffle(order);
      for (const std::size_t i : order) {
        const auto& [src, dst] = pairs[i];
        const std::string diff = difference(memo.paths(src, dst), want[i]);
        ASSERT_TRUE(diff.empty())
            << "seed " << seed << " pass " << pass << " " << src.to_string()
            << " -> " << dst.to_string() << ": " << diff;
        if (pass == 0 && !want[i].empty()) ++nonempty;
      }
    }
  }
  // Most pairs are connected, so the comparison is not between empties.
  EXPECT_GT(nonempty, kTopologies * 30);
}

TEST(BeaconingMemo, ThreadsRacingOnFirstCallsSeeFreshAnswers) {
  constexpr int kThreads = 4;
  for (std::uint64_t seed = 101; seed <= 105; ++seed) {
    util::Rng rng(seed);
    const Topology topology = test_support::random_topology(rng);
    const std::vector<AsPair> pairs = all_pairs(topology);
    const std::vector<std::vector<Path>> want = fresh_answers(topology, pairs);

    const Beaconing shared(topology);
    std::vector<std::vector<std::string>> failures(kThreads);
    // Where each thread found each pair's answer.
    std::vector<std::vector<const std::vector<Path>*>> addresses(
        kThreads, std::vector<const std::vector<Path>*>(pairs.size()));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Every thread walks all pairs in an order of its own, so first
        // calls for one pair race between threads.
        util::Rng order_rng(seed * 16 + static_cast<std::uint64_t>(t));
        std::vector<std::size_t> order(pairs.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        order_rng.shuffle(order);
        for (const std::size_t i : order) {
          const std::vector<Path>& answer =
              shared.paths(pairs[i].first, pairs[i].second);
          addresses[static_cast<std::size_t>(t)][i] = &answer;
          const std::string diff = difference(answer, want[i]);
          if (!diff.empty()) failures[static_cast<std::size_t>(t)].push_back(diff);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(failures[static_cast<std::size_t>(t)].empty())
          << "seed " << seed << " thread " << t << ": "
          << failures[static_cast<std::size_t>(t)].front();
    }
    // The threads, and a call after them, all got the one kept answer.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const std::vector<Path>* kept =
          &shared.paths(pairs[i].first, pairs[i].second);
      for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(addresses[static_cast<std::size_t>(t)][i], kept)
            << "seed " << seed << " thread " << t << " pair "
            << pairs[i].first.to_string() << " -> "
            << pairs[i].second.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace upin::scion
