// Tests for scion/path_cache: TTL, stale-while-revalidate, negative
// entries, LRU bounds, revocation-driven invalidation, answers served in
// place from the resolver, and the metadata snapshot/restore round-trip
// behind crash-safe campaign resume.
#include "scion/path_cache.hpp"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace upin::scion {
namespace {

using util::SimTime;

Path make_path(std::uint64_t src, std::uint64_t mid, std::uint64_t dst) {
  std::vector<PathHop> hops{{IsdAsn{1, src}, 0, 1},
                            {IsdAsn{1, mid}, 1, 2},
                            {IsdAsn{1, dst}, 2, 0}};
  Path path(std::move(hops), 1400.0, util::sim_seconds(0.012));
  path.set_lifetime(SimTime::zero(), util::sim_seconds(21600.0));
  return path;
}

const IsdAsn kSrc{1, 1};
const IsdAsn kDst{1, 3};
const IsdAsn kUnreachable{1, 7};

/// A pure resolver, as Beaconing::paths is: each pair's answer is made on
/// its first call and kept in `answers`, and every call returns the kept
/// one by reference.  kDst goes via AS 2, kUnreachable has no path, any
/// other destination goes via AS 4.
struct PairResolver {
  std::unordered_map<AsPair, std::vector<Path>, AsPairHash> answers;

  PathCache::Resolver fn() {
    return [this](IsdAsn src, IsdAsn dst) -> const std::vector<Path>& {
      const auto [it, made] = answers.try_emplace(AsPair{src, dst});
      if (made && dst != kUnreachable) {
        it->second.push_back(
            make_path(src.asn(), dst == kDst ? 2 : 4, dst.asn()));
      }
      return it->second;
    };
  }
};

/// True when `served` is the resolver's kept answer itself, in place.
bool is_answer(std::span<const Path> served, const std::vector<Path>& answer) {
  return served.data() == answer.data() && served.size() == answer.size();
}

TEST(PathCache, MissResolvesThenFreshLookupsHitWithoutResolving) {
  PairResolver resolver;
  PathCache cache(resolver.fn(), PathCacheConfig{.ttl_s = 300.0});
  const PathCacheServed first = cache.serve(kSrc, kDst, SimTime::zero());
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.refreshed);
  ASSERT_EQ(first.paths.size(), 1u);
  EXPECT_TRUE(is_answer(first.paths, resolver.answers.at({kSrc, kDst})));

  const PathCacheServed second =
      cache.serve(kSrc, kDst, util::sim_seconds(299.0));
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.stale);
  EXPECT_FALSE(second.refreshed) << "fresh hits must not re-resolve";
  EXPECT_TRUE(is_answer(second.paths, resolver.answers.at({kSrc, kDst})));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PathCache, StaleWhileRevalidateServesOldPathsAndRefreshes) {
  PairResolver resolver;
  PathCache cache(resolver.fn(),
                  PathCacheConfig{.ttl_s = 300.0, .stale_serve_s = 60.0});
  (void)cache.serve(kSrc, kDst, SimTime::zero());

  // Past TTL but inside the grace window: the answer now, flagged stale,
  // plus a synchronous revalidation for the next caller.
  const PathCacheServed stale =
      cache.serve(kSrc, kDst, util::sim_seconds(301.0));
  EXPECT_TRUE(stale.hit);
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.refreshed);
  ASSERT_EQ(stale.paths.size(), 1u);
  EXPECT_EQ(stale.paths[0].status(), "alive")
      << "the cache leaves statuses to its caller";
  EXPECT_EQ(cache.stats().stale_served, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The revalidation reset the entry's clock: the next lookup is fresh.
  const PathCacheServed after =
      cache.serve(kSrc, kDst, util::sim_seconds(302.0));
  EXPECT_TRUE(after.hit);
  EXPECT_FALSE(after.stale);
  EXPECT_FALSE(after.refreshed);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PathCache, BeyondGraceWindowIsAPlainMissRefresh) {
  PairResolver resolver;
  PathCache cache(resolver.fn(),
                  PathCacheConfig{.ttl_s = 300.0, .stale_serve_s = 60.0});
  (void)cache.serve(kSrc, kDst, SimTime::zero());
  const PathCacheServed served =
      cache.serve(kSrc, kDst, util::sim_seconds(361.0));
  EXPECT_FALSE(served.hit);
  EXPECT_FALSE(served.stale);
  EXPECT_TRUE(served.refreshed);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PathCache, EmptyAnswersAreCachedWithTheirOwnTtl) {
  PairResolver resolver;
  PathCache cache(resolver.fn(), PathCacheConfig{.negative_ttl_s = 30.0});
  const PathCacheServed first =
      cache.serve(kSrc, kUnreachable, SimTime::zero());
  EXPECT_TRUE(first.negative);
  EXPECT_TRUE(first.refreshed);
  EXPECT_TRUE(first.paths.empty());

  // Within the negative TTL the empty answer is served from the cache.
  const PathCacheServed second =
      cache.serve(kSrc, kUnreachable, util::sim_seconds(29.0));
  EXPECT_TRUE(second.hit);
  EXPECT_TRUE(second.negative);
  EXPECT_FALSE(second.refreshed);
  EXPECT_EQ(cache.stats().negative_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Past it, the pair is re-resolved.
  const PathCacheServed third =
      cache.serve(kSrc, kUnreachable, util::sim_seconds(31.0));
  EXPECT_FALSE(third.hit);
  EXPECT_TRUE(third.refreshed);
  EXPECT_TRUE(third.negative);
  EXPECT_TRUE(third.paths.empty());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PathCache, LruEvictionKeepsTheMostRecentlyUsedPairs) {
  PairResolver resolver;
  PathCache cache(resolver.fn(), PathCacheConfig{.capacity = 2});
  const IsdAsn a{1, 10}, b{1, 11}, c{1, 12};
  (void)cache.serve(kSrc, a, SimTime::zero());
  (void)cache.serve(kSrc, b, util::sim_seconds(1.0));
  // Touch (src, a) so (src, b) is the LRU victim.
  (void)cache.serve(kSrc, a, util::sim_seconds(2.0));
  (void)cache.serve(kSrc, c, util::sim_seconds(3.0));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const PathCacheServed kept = cache.serve(kSrc, a, util::sim_seconds(4.0));
  EXPECT_TRUE(kept.hit) << "(src, a) must have survived";
  EXPECT_FALSE(kept.refreshed);
  EXPECT_FALSE(cache.serve(kSrc, b, util::sim_seconds(5.0)).hit)
      << "(src, b) was the least recently used pair and must be gone";
}

TEST(PathCache, InvalidationDirtyMarksAndForcesReResolve) {
  PairResolver resolver;
  PathCache cache(resolver.fn());
  (void)cache.serve(kSrc, kDst, SimTime::zero());

  const std::size_t marked = cache.invalidate_if(
      [](const Path& path) { return path.traverses(IsdAsn{1, 2}); });
  EXPECT_EQ(marked, 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // Well within TTL, but dirty: the entry re-resolves before serving.
  const PathCacheServed served =
      cache.serve(kSrc, kDst, util::sim_seconds(1.0));
  EXPECT_TRUE(served.refreshed);
  EXPECT_FALSE(served.stale);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PathCache, DirtyEntryServedStaleWhenResolverUnavailable) {
  PairResolver resolver;
  PathCache cache(resolver.fn());
  (void)cache.serve(kSrc, kDst, SimTime::zero());
  (void)cache.invalidate_if([](const Path&) { return true; });

  const PathCacheServed served = cache.serve(
      kSrc, kDst, util::sim_seconds(1.0), /*resolver_available=*/false);
  EXPECT_TRUE(served.hit);
  EXPECT_TRUE(served.stale);
  EXPECT_FALSE(served.refreshed);
  EXPECT_TRUE(is_answer(served.paths, resolver.answers.at({kSrc, kDst})));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PathCache, ResolverDownServesStaleAtAnyAgeButHardMissesCold) {
  PairResolver resolver;
  PathCache cache(resolver.fn(),
                  PathCacheConfig{.ttl_s = 300.0, .stale_serve_s = 60.0});
  (void)cache.serve(kSrc, kDst, SimTime::zero());

  // Far beyond TTL + grace: with the resolver down, stale beats a miss.
  const PathCacheServed stale =
      cache.serve(kSrc, kDst, util::sim_seconds(9000.0),
                  /*resolver_available=*/false);
  EXPECT_TRUE(stale.hit);
  EXPECT_TRUE(stale.stale);
  EXPECT_FALSE(stale.refreshed);
  EXPECT_EQ(stale.paths.size(), 1u);

  // A pair never seen before cannot degrade: hard miss, nothing cached.
  const PathCacheServed cold =
      cache.serve(kSrc, IsdAsn{1, 99}, util::sim_seconds(9000.0),
                  /*resolver_available=*/false);
  EXPECT_FALSE(cold.hit);
  EXPECT_FALSE(cold.refreshed);
  EXPECT_TRUE(cold.negative);
  EXPECT_TRUE(cold.paths.empty());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PathCache, DisabledCacheBypassesToTheResolver) {
  PairResolver resolver;
  PathCache cache(resolver.fn(), PathCacheConfig{.enabled = false});
  const PathCacheServed served = cache.serve(kSrc, kDst, SimTime::zero());
  EXPECT_FALSE(served.hit);
  EXPECT_TRUE(served.refreshed);
  EXPECT_TRUE(is_answer(served.paths, resolver.answers.at({kSrc, kDst})));
  EXPECT_TRUE(cache.serve(kSrc, kDst, SimTime::zero()).refreshed);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PathCache, SnapshotRestoreRoundTripsObservableState) {
  const IsdAsn other{1, 5};
  PairResolver resolver;
  PathCache cache(resolver.fn(), PathCacheConfig{.negative_ttl_s = 30.0});
  (void)cache.serve(kSrc, kDst, util::sim_seconds(5.0));
  (void)cache.serve(kSrc, kUnreachable, util::sim_seconds(6.0));
  (void)cache.serve(kSrc, other, util::sim_seconds(6.5));
  (void)cache.invalidate_if(
      [](const Path& path) { return path.traverses(IsdAsn{1, 2}); });

  // The snapshot is entry metadata only.
  const util::Value snapshot = cache.snapshot();
  for (const util::Value& entry : snapshot.get("entries")->as_array()) {
    EXPECT_EQ(entry.get("paths"), nullptr);
  }

  // A restore into a cache over another resolver with the same answers,
  // as a resumed campaign's fresh host has.
  PairResolver resolving;
  PathCache restored(resolving.fn(), cache.config());
  ASSERT_TRUE(restored.restore(snapshot).ok());
  EXPECT_EQ(restored.size(), cache.size());
  // The full observable state (entries, LRU order, timestamps, flags)
  // must survive the round trip bit-for-bit, also when restored twice.
  EXPECT_EQ(restored.snapshot().dump(), snapshot.dump());
  ASSERT_TRUE(restored.restore(snapshot).ok());
  EXPECT_EQ(restored.snapshot().dump(), snapshot.dump());

  // Behavioural equivalence: the restored clean entry serves the
  // resolver's paths from the cache, the restored dirty entry still
  // re-resolves, the restored negative entry still answers empty from the
  // cache.
  const PathCacheServed served =
      restored.serve(kSrc, other, util::sim_seconds(7.0));
  EXPECT_TRUE(served.hit);
  EXPECT_FALSE(served.refreshed);
  EXPECT_TRUE(is_answer(served.paths, resolving.answers.at({kSrc, other})));
  EXPECT_TRUE(restored.serve(kSrc, kDst, util::sim_seconds(7.0)).refreshed);
  const PathCacheServed negative =
      restored.serve(kSrc, kUnreachable, util::sim_seconds(8.0));
  EXPECT_TRUE(negative.negative);
  EXPECT_TRUE(negative.hit);
  EXPECT_FALSE(negative.refreshed);
}

TEST(PathCache, RestoreIgnoresPathArraysOfOlderSnapshots) {
  PairResolver resolver;
  PathCache source(resolver.fn());
  (void)source.serve(kSrc, kDst, util::sim_seconds(5.0));
  (void)source.serve(kSrc, kUnreachable, util::sim_seconds(6.0));
  const util::Value compact = source.snapshot();

  // Checkpoints written before entries dropped their paths carry a
  // `paths` array per entry; restore ignores it.
  util::Value older = compact;
  for (util::Value& entry : older["entries"].as_array()) {
    entry["paths"] = util::Value::array({util::Value::object(
        {{"sequence", "not a sequence"}, {"mtu", "1400"}})});
  }
  PathCache restored(resolver.fn());
  ASSERT_TRUE(restored.restore(older).ok());
  EXPECT_EQ(restored.snapshot().dump(), compact.dump());
}

TEST(PathCache, RestoreRejectsMalformedSnapshots) {
  PairResolver resolver;
  PathCache cache(resolver.fn());
  EXPECT_FALSE(cache.restore(util::Value()).ok());
  EXPECT_FALSE(cache.restore(util::Value::object({})).ok());

  // A valid two-entry snapshot, corrupted one field at a time.
  PathCache source(resolver.fn());
  (void)source.serve(kSrc, kDst, util::sim_seconds(5.0));
  (void)source.serve(kSrc, IsdAsn{1, 5}, util::sim_seconds(6.0));
  const util::Value good = source.snapshot();
  ASSERT_TRUE(cache.restore(good).ok());
  const std::string before = cache.snapshot().dump();

  const auto expect_rejected = [&](const util::Value& bad,
                                   const std::string& what) {
    const util::Status status = cache.restore(bad);
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_EQ(status.error().code, util::ErrorCode::kParseError) << what;
    EXPECT_EQ(cache.snapshot().dump(), before)
        << what << ": a rejected snapshot must leave the cache unchanged";
  };

  const std::vector<std::pair<std::string, util::Value>> entry_fields = {
      {"src", 17},
      {"dst", true},
      {"src", "1-zz"},
      {"resolved_at_ns", "5"},
      {"resolved_at_ns", 1.5},
      {"negative", 1},
      {"dirty", "yes"},
  };
  for (const auto& [field, wrong] : entry_fields) {
    util::Value bad = good;
    bad["entries"].as_array()[1][field] = wrong;
    expect_rejected(bad, "entry field " + field + " = " + wrong.dump());
  }

  // A `negative` flag the resolver contradicts: a checkpoint of another
  // topology.  Checked for a pair the cache holds and for a new one.
  util::Value held = good;
  held["entries"].as_array()[1]["negative"] = true;
  expect_rejected(held, "negative flag of a held pair");
  util::Value fresh = good;
  fresh["entries"].as_array().push_back(util::Value::object({
      {"src", "1-9"},
      {"dst", "1-3"},
      {"resolved_at_ns", 0},
      {"negative", true},
  }));
  expect_rejected(fresh, "negative flag of a new pair");

  // The same (src, dst) pair twice: restoring it would leave an entry in
  // the LRU list without an index slot of its own.
  util::Value twice = good;
  util::Value::Array& entries = twice["entries"].as_array();
  entries.push_back(entries[0]);
  expect_rejected(twice, "duplicate pair");

  // Past every rejection the cache still works as restored.
  const PathCacheServed served = cache.serve(kSrc, kDst, util::sim_seconds(7.0));
  EXPECT_TRUE(served.hit);
  EXPECT_FALSE(served.refreshed);
}

/// The process-wide counters every lookup feeds, and the local Stats
/// fields they mirror, in the same order.
std::vector<std::uint64_t> global_cache_counters() {
  std::vector<std::uint64_t> values;
  for (const char* name :
       {"upin_path_cache_hits_total", "upin_path_cache_misses_total",
        "upin_path_cache_stale_served_total",
        "upin_path_cache_evictions_total"}) {
    values.push_back(obs::Registry::global().counter(name).value());
  }
  return values;
}

std::vector<std::uint64_t> local_counters(const PathCache::Stats& stats) {
  return {stats.hits, stats.misses, stats.stale_served, stats.evictions};
}

std::vector<std::uint64_t> deltas(const std::vector<std::uint64_t>& after,
                                  const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> result = after;
  for (std::size_t i = 0; i < result.size(); ++i) result[i] -= before[i];
  return result;
}

/// Drive one cache through a seeded script of lookups, instants and
/// invalidations.  Every step must serve the resolver's own answer in
/// place (nothing on a negative answer), count itself once in the local
/// Stats, and move the global counters exactly as much as the local ones.
/// Returns how often each way of serving occurred, so the caller can
/// check the script reached them all.
std::map<std::string, std::size_t> run_script(PathCacheConfig config,
                                              std::uint64_t seed, int steps) {
  PairResolver resolver;
  PathCache cache(resolver.fn(), config);
  const std::vector<IsdAsn> destinations = {kDst, IsdAsn{1, 10},
                                            IsdAsn{1, 11}, IsdAsn{1, 12},
                                            kUnreachable};
  const std::vector<std::uint64_t> global_start = global_cache_counters();
  std::map<std::string, std::size_t> seen;
  util::Rng rng(seed);
  SimTime now = SimTime::zero();
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Gaps that land fresh, in the negative TTL, in the grace window,
    // beyond it, or at the same instant.
    const double gaps[] = {0.0, rng.uniform(0.0, 40.0),
                           rng.uniform(0.0, 299.0), rng.uniform(300.0, 359.0),
                           rng.uniform(360.0, 900.0)};
    now += util::sim_seconds(gaps[static_cast<std::size_t>(rng.uniform_int(0, 4))]);
    if (rng.uniform() < 0.1) {
      const IsdAsn mid{1, rng.uniform() < 0.5 ? 2u : 4u};
      if (cache.invalidate_if([mid](const Path& path) {
            return path.traverses(mid);
          }) > 0) {
        ++seen["invalidated"];
      }
      continue;
    }
    const IsdAsn dst = destinations[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(destinations.size()) - 1))];
    const bool available = rng.uniform() < 0.8;

    const std::vector<std::uint64_t> global_before = global_cache_counters();
    const PathCache::Stats local_before = cache.stats();
    const PathCacheServed served = cache.serve(kSrc, dst, now, available);
    const std::vector<std::uint64_t> local_step =
        deltas(local_counters(cache.stats()), local_counters(local_before));
    EXPECT_EQ(deltas(global_cache_counters(), global_before), local_step);

    if (served.negative) {
      EXPECT_TRUE(served.paths.empty());
    } else {
      EXPECT_TRUE(is_answer(served.paths, resolver.answers.at({kSrc, dst})));
    }
    EXPECT_TRUE(served.hit || !served.stale);
    if (config.enabled) {
      // One lookup, one count: a hit, a stale serve, or a miss.
      EXPECT_EQ(local_step[0] + local_step[1] + local_step[2], 1u);
      EXPECT_EQ(local_step[1], served.hit ? 0u : 1u);
    }

    if (served.stale) {
      ++seen[served.refreshed ? "stale, revalidated" : "stale, resolver down"];
    } else if (served.hit) {
      ++seen[served.negative ? "negative hit" : "fresh hit"];
    } else if (served.refreshed) {
      ++seen[served.negative ? "resolved empty" : "resolved"];
    } else {
      ++seen["hard miss"];
    }
  }
  EXPECT_EQ(deltas(global_cache_counters(), global_start),
            local_counters(cache.stats()));
  if (cache.stats().evictions > 0) ++seen["evicted"];
  return seen;
}

TEST(PathCache, ServeReachesEveryBranchAndFeedsTheGlobalCounters) {
  const std::map<std::string, std::size_t> seen =
      run_script(PathCacheConfig{.capacity = 3}, 2024, 800);
  for (const char* branch :
       {"fresh hit", "negative hit", "resolved", "resolved empty",
        "stale, revalidated", "stale, resolver down", "hard miss",
        "invalidated", "evicted"}) {
    EXPECT_GT(seen.count(branch), 0u) << "the script never reached: " << branch;
  }
}

TEST(PathCache, ServeInBypassModeAlwaysResolves) {
  const std::map<std::string, std::size_t> seen =
      run_script(PathCacheConfig{.enabled = false}, 2025, 100);
  // Bypass mode re-resolves every lookup, flags no answer negative and
  // counts nothing.
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.count("resolved"), 1u);
}

}  // namespace
}  // namespace upin::scion
