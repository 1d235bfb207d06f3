// Tests for scion/path_cache: TTL, stale-while-revalidate, negative
// entries, LRU bounds, revocation-driven invalidation, and the
// metadata snapshot/restore round-trip behind crash-safe campaign resume.
#include "scion/path_cache.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
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

/// A counting resolver: answers with one fixed 3-hop path per pair.
struct CountingResolver {
  std::size_t calls = 0;
  std::vector<Path> answer = {make_path(1, 2, 3)};

  PathCache::Resolver fn() {
    return [this](IsdAsn, IsdAsn) {
      ++calls;
      return answer;
    };
  }
};

const IsdAsn kSrc{1, 1};
const IsdAsn kDst{1, 3};

TEST(PathCache, MissResolvesThenFreshLookupsHitWithoutResolving) {
  PathCache cache(PathCacheConfig{.ttl_s = 300.0});
  CountingResolver resolver;
  const PathCacheLookup first =
      cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.refreshed);
  ASSERT_EQ(first.paths.size(), 1u);
  EXPECT_EQ(resolver.calls, 1u);

  const PathCacheLookup second =
      cache.lookup(kSrc, kDst, util::sim_seconds(299.0), resolver.fn());
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.stale);
  EXPECT_FALSE(second.refreshed);
  EXPECT_EQ(second.paths, first.paths);
  EXPECT_EQ(resolver.calls, 1u) << "fresh hits must not touch the resolver";
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PathCache, StaleWhileRevalidateServesOldPathsAndRefreshes) {
  PathCache cache(PathCacheConfig{.ttl_s = 300.0, .stale_serve_s = 60.0});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());

  // Past TTL but inside the grace window: old answer, flagged stale,
  // plus a synchronous revalidation for the next caller.
  const PathCacheLookup stale =
      cache.lookup(kSrc, kDst, util::sim_seconds(301.0), resolver.fn());
  EXPECT_TRUE(stale.hit);
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.refreshed);
  ASSERT_EQ(stale.paths.size(), 1u);
  EXPECT_EQ(stale.paths[0].status(), "stale");
  EXPECT_EQ(resolver.calls, 2u);
  EXPECT_EQ(cache.stats().stale_served, 1u);

  // The revalidation reset the entry's clock: the next lookup is fresh.
  const PathCacheLookup after =
      cache.lookup(kSrc, kDst, util::sim_seconds(302.0), resolver.fn());
  EXPECT_TRUE(after.hit);
  EXPECT_FALSE(after.stale);
  EXPECT_EQ(after.paths[0].status(), "alive");
  EXPECT_EQ(resolver.calls, 2u);
}

TEST(PathCache, BeyondGraceWindowIsAPlainMissRefresh) {
  PathCache cache(PathCacheConfig{.ttl_s = 300.0, .stale_serve_s = 60.0});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  const PathCacheLookup lookup =
      cache.lookup(kSrc, kDst, util::sim_seconds(361.0), resolver.fn());
  EXPECT_FALSE(lookup.hit);
  EXPECT_FALSE(lookup.stale);
  EXPECT_TRUE(lookup.refreshed);
  EXPECT_EQ(resolver.calls, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PathCache, EmptyAnswersAreCachedWithTheirOwnTtl) {
  PathCache cache(PathCacheConfig{.negative_ttl_s = 30.0});
  CountingResolver resolver;
  resolver.answer.clear();
  const PathCacheLookup first =
      cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  EXPECT_TRUE(first.negative);
  EXPECT_TRUE(first.refreshed);
  EXPECT_TRUE(first.paths.empty());

  // Within the negative TTL the empty answer is served from the cache.
  const PathCacheLookup second =
      cache.lookup(kSrc, kDst, util::sim_seconds(29.0), resolver.fn());
  EXPECT_TRUE(second.hit);
  EXPECT_TRUE(second.negative);
  EXPECT_EQ(resolver.calls, 1u);
  EXPECT_EQ(cache.stats().negative_hits, 1u);

  // Past it, the pair is re-resolved — and paths may have appeared.
  resolver.answer = {make_path(1, 2, 3)};
  const PathCacheLookup third =
      cache.lookup(kSrc, kDst, util::sim_seconds(31.0), resolver.fn());
  EXPECT_TRUE(third.refreshed);
  EXPECT_FALSE(third.negative);
  ASSERT_EQ(third.paths.size(), 1u);
  EXPECT_EQ(resolver.calls, 2u);
}

TEST(PathCache, LruEvictionKeepsTheMostRecentlyUsedPairs) {
  PathCache cache(PathCacheConfig{.capacity = 2});
  CountingResolver resolver;
  const IsdAsn a{1, 10}, b{1, 11}, c{1, 12};
  (void)cache.lookup(kSrc, a, SimTime::zero(), resolver.fn());
  (void)cache.lookup(kSrc, b, util::sim_seconds(1.0), resolver.fn());
  // Touch (src, a) so (src, b) is the LRU victim.
  (void)cache.lookup(kSrc, a, util::sim_seconds(2.0), resolver.fn());
  (void)cache.lookup(kSrc, c, util::sim_seconds(3.0), resolver.fn());

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const std::size_t calls_before = resolver.calls;
  EXPECT_TRUE(
      cache.lookup(kSrc, a, util::sim_seconds(4.0), resolver.fn()).hit);
  EXPECT_EQ(resolver.calls, calls_before) << "(src, a) must have survived";
  EXPECT_FALSE(
      cache.lookup(kSrc, b, util::sim_seconds(5.0), resolver.fn()).hit)
      << "(src, b) was the least recently used pair and must be gone";
}

TEST(PathCache, InvalidationDirtyMarksAndForcesReResolve) {
  PathCache cache(PathCacheConfig{});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());

  const std::size_t marked = cache.invalidate_if(
      [](const Path& path) { return path.traverses(IsdAsn{1, 2}); });
  EXPECT_EQ(marked, 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // Well within TTL, but dirty: the entry re-resolves before serving.
  const PathCacheLookup lookup =
      cache.lookup(kSrc, kDst, util::sim_seconds(1.0), resolver.fn());
  EXPECT_TRUE(lookup.refreshed);
  EXPECT_FALSE(lookup.stale);
  EXPECT_EQ(resolver.calls, 2u);
}

TEST(PathCache, DirtyEntryServedStaleWhenResolverUnavailable) {
  PathCache cache(PathCacheConfig{});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  (void)cache.invalidate_if([](const Path&) { return true; });

  const PathCacheLookup lookup = cache.lookup(
      kSrc, kDst, util::sim_seconds(1.0), resolver.fn(), /*available=*/false);
  EXPECT_TRUE(lookup.hit);
  EXPECT_TRUE(lookup.stale);
  EXPECT_FALSE(lookup.refreshed);
  ASSERT_EQ(lookup.paths.size(), 1u);
  EXPECT_EQ(lookup.paths[0].status(), "stale");
  EXPECT_EQ(resolver.calls, 1u);
}

TEST(PathCache, ResolverDownServesStaleAtAnyAgeButHardMissesCold) {
  PathCache cache(PathCacheConfig{.ttl_s = 300.0, .stale_serve_s = 60.0});
  CountingResolver resolver;
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());

  // Far beyond TTL + grace: with the resolver down, stale beats a miss.
  const PathCacheLookup stale =
      cache.lookup(kSrc, kDst, util::sim_seconds(9000.0), resolver.fn(),
                   /*available=*/false);
  EXPECT_TRUE(stale.hit);
  EXPECT_TRUE(stale.stale);
  EXPECT_FALSE(stale.refreshed);
  EXPECT_EQ(resolver.calls, 1u);

  // A pair never seen before cannot degrade: hard miss, no resolve.
  const PathCacheLookup cold =
      cache.lookup(kSrc, IsdAsn{1, 99}, util::sim_seconds(9000.0),
                   resolver.fn(), /*available=*/false);
  EXPECT_FALSE(cold.hit);
  EXPECT_TRUE(cold.negative);
  EXPECT_TRUE(cold.paths.empty());
  EXPECT_EQ(resolver.calls, 1u);
}

TEST(PathCache, DisabledCacheBypassesToTheResolver) {
  PathCache cache(PathCacheConfig{.enabled = false});
  CountingResolver resolver;
  const PathCacheLookup lookup =
      cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  EXPECT_FALSE(lookup.hit);
  EXPECT_TRUE(lookup.refreshed);
  EXPECT_EQ(lookup.paths.size(), 1u);
  (void)cache.lookup(kSrc, kDst, SimTime::zero(), resolver.fn());
  EXPECT_EQ(resolver.calls, 2u);
  EXPECT_EQ(cache.size(), 0u);
}

/// A resolver whose answer depends on the pair, as Beaconing::paths does:
/// kDst via AS 2, kUnreachable nothing, any other destination via AS 4.
const IsdAsn kUnreachable{1, 7};

struct PairResolver {
  std::size_t calls = 0;

  PathCache::Resolver fn() {
    return [this](IsdAsn, IsdAsn dst) {
      ++calls;
      if (dst == kUnreachable) return std::vector<Path>{};
      return std::vector<Path>{make_path(1, dst == kDst ? 2 : 4, dst.asn())};
    };
  }
};

TEST(PathCache, SnapshotRestoreRoundTripsObservableState) {
  const IsdAsn other{1, 5};
  PathCache cache(PathCacheConfig{.negative_ttl_s = 30.0});
  PairResolver resolver;
  (void)cache.lookup(kSrc, kDst, util::sim_seconds(5.0), resolver.fn());
  (void)cache.lookup(kSrc, kUnreachable, util::sim_seconds(6.0),
                     resolver.fn());
  const PathCacheLookup original =
      cache.lookup(kSrc, other, util::sim_seconds(6.5), resolver.fn());
  (void)cache.invalidate_if(
      [](const Path& path) { return path.traverses(IsdAsn{1, 2}); });

  // The snapshot is entry metadata only.
  const util::Value snapshot = cache.snapshot();
  for (const util::Value& entry : snapshot.get("entries")->as_array()) {
    EXPECT_EQ(entry.get("paths"), nullptr);
  }

  PathCache restored(cache.config());
  PairResolver resolving;
  ASSERT_TRUE(restored.restore(snapshot, resolving.fn()).ok());
  EXPECT_EQ(resolving.calls, 3u) << "each restored pair resolves once";
  EXPECT_EQ(restored.size(), cache.size());
  // The full observable state (entries, LRU order, timestamps, flags)
  // must survive the round trip bit-for-bit.
  EXPECT_EQ(restored.snapshot().dump(), snapshot.dump());

  // Pairs the cache already holds keep their paths: no resolver call.
  ASSERT_TRUE(restored.restore(snapshot, resolving.fn()).ok());
  EXPECT_EQ(resolving.calls, 3u);
  EXPECT_EQ(restored.snapshot().dump(), snapshot.dump());

  // Behavioural equivalence: the restored clean entry serves the original
  // paths from the cache, the restored dirty entry still re-resolves, the
  // restored negative entry still answers empty from the cache.
  PairResolver after;
  const PathCacheLookup served =
      restored.lookup(kSrc, other, util::sim_seconds(7.0), after.fn());
  EXPECT_TRUE(served.hit);
  EXPECT_EQ(served.paths, original.paths);
  EXPECT_EQ(after.calls, 0u);
  EXPECT_TRUE(
      restored.lookup(kSrc, kDst, util::sim_seconds(7.0), after.fn()).refreshed);
  EXPECT_EQ(after.calls, 1u);
  const PathCacheLookup negative =
      restored.lookup(kSrc, kUnreachable, util::sim_seconds(8.0), after.fn());
  EXPECT_TRUE(negative.negative);
  EXPECT_TRUE(negative.hit);
  EXPECT_EQ(after.calls, 1u);
}

TEST(PathCache, RestoreIgnoresPathArraysOfOlderSnapshots) {
  PathCache source;
  PairResolver resolver;
  (void)source.lookup(kSrc, kDst, util::sim_seconds(5.0), resolver.fn());
  (void)source.lookup(kSrc, kUnreachable, util::sim_seconds(6.0),
                      resolver.fn());
  const util::Value compact = source.snapshot();

  // Checkpoints written before entries dropped their paths carry a
  // `paths` array per entry; restore re-resolves and ignores it.
  util::Value older = compact;
  for (util::Value& entry : older["entries"].as_array()) {
    entry["paths"] = util::Value::array({util::Value::object(
        {{"sequence", "not a sequence"}, {"mtu", "1400"}})});
  }
  PathCache restored;
  ASSERT_TRUE(restored.restore(older, resolver.fn()).ok());
  EXPECT_EQ(restored.snapshot().dump(), compact.dump());
}

TEST(PathCache, RestoreRejectsMalformedSnapshots) {
  PathCache cache;
  CountingResolver resolver;
  EXPECT_FALSE(cache.restore(util::Value(), resolver.fn()).ok());
  EXPECT_FALSE(cache.restore(util::Value::object({}), resolver.fn()).ok());

  // A valid two-entry snapshot, corrupted one field at a time.
  PathCache source;
  (void)source.lookup(kSrc, kDst, util::sim_seconds(5.0), resolver.fn());
  (void)source.lookup(kSrc, IsdAsn{1, 7}, util::sim_seconds(6.0),
                      resolver.fn());
  const util::Value good = source.snapshot();
  ASSERT_TRUE(cache.restore(good, resolver.fn()).ok());
  const std::string before = cache.snapshot().dump();

  const auto expect_rejected = [&](const util::Value& bad,
                                   const std::string& what) {
    const util::Status status = cache.restore(bad, resolver.fn());
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
  CountingResolver after;
  EXPECT_TRUE(cache.lookup(kSrc, kDst, util::sim_seconds(7.0), after.fn()).hit);
  EXPECT_EQ(after.calls, 0u);
}

/// A resolver whose answer changes with every call (the MTU counts the
/// calls), so an entry's old paths differ from its refreshed ones;
/// kUnreachable resolves to nothing.
struct ChangingResolver {
  std::size_t calls = 0;

  PathCache::Resolver fn() {
    return [this](IsdAsn src, IsdAsn dst) {
      ++calls;
      std::vector<Path> paths;
      if (dst == kUnreachable) return paths;
      for (const std::uint64_t mid : {2u, 4u}) {
        Path path({{src, 0, 1}, {IsdAsn{1, mid}, 1, 2}, {dst, 2, 0}},
                  static_cast<double>(calls), util::sim_seconds(0.012));
        path.set_lifetime(SimTime::zero(), util::sim_seconds(21600.0));
        paths.push_back(std::move(path));
      }
      return paths;
    };
  }
};

/// The process-wide counters every lookup feeds.
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

std::vector<std::uint64_t> counter_deltas(
    const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> deltas = global_cache_counters();
  for (std::size_t i = 0; i < deltas.size(); ++i) deltas[i] -= before[i];
  return deltas;
}

void expect_same_stats(const PathCache::Stats& a, const PathCache::Stats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.stale_served, b.stale_served);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.negative_hits, b.negative_hits);
  EXPECT_EQ(a.invalidations, b.invalidations);
}

/// Twin caches driven by the same seeded script, one through lookup() and
/// one through visit(): every served answer, flag, local stat, global
/// counter delta and snapshot must agree.  Returns how often each way of
/// serving occurred, so the caller can check the script reached them all.
std::map<std::string, std::size_t> run_twin_script(PathCacheConfig config,
                                                   std::uint64_t seed,
                                                   int steps) {
  PathCache looked_up(config);
  PathCache visited(config);
  ChangingResolver lookup_resolver;
  ChangingResolver visit_resolver;
  const std::vector<IsdAsn> destinations = {kDst, IsdAsn{1, 10},
                                            IsdAsn{1, 11}, IsdAsn{1, 12},
                                            kUnreachable};
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
      const auto covered = [mid](const Path& path) {
        return path.traverses(mid);
      };
      EXPECT_EQ(looked_up.invalidate_if(covered),
                visited.invalidate_if(covered));
      if (looked_up.stats().invalidations > 0) ++seen["invalidated"];
      continue;
    }
    const IsdAsn dst = destinations[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(destinations.size()) - 1))];
    const bool available = rng.uniform() < 0.8;

    std::vector<std::uint64_t> before = global_cache_counters();
    const PathCacheLookup expected =
        looked_up.lookup(kSrc, dst, now, lookup_resolver.fn(), available);
    const std::vector<std::uint64_t> lookup_deltas = counter_deltas(before);

    before = global_cache_counters();
    const std::size_t calls_before = visit_resolver.calls;
    int visits = 0;
    PathCacheLookup actual;
    visited.visit(kSrc, dst, now, visit_resolver.fn(), available,
                  [&](const std::vector<Path>& paths,
                      const PathCacheServed& served) {
                    ++visits;
                    static_cast<PathCacheServed&>(actual) = served;
                    actual.paths = paths;
                  });
    const std::vector<std::uint64_t> visit_deltas = counter_deltas(before);
    EXPECT_EQ(visits, 1) << "visit must call its visitor exactly once";
    // Independently of lookup: a refresh resolves once, a stale answer
    // predates this call's refresh, a refreshed one is the newest.
    EXPECT_EQ(visit_resolver.calls, calls_before + (actual.refreshed ? 1 : 0));
    if (!actual.paths.empty()) {
      const double resolved_by = actual.paths.front().mtu();
      if (actual.stale) {
        EXPECT_LE(resolved_by, static_cast<double>(calls_before));
      } else if (actual.refreshed) {
        EXPECT_EQ(resolved_by, static_cast<double>(visit_resolver.calls));
      }
    }
    if (actual.stale) {
      for (Path& path : actual.paths) path.set_status("stale");
    }

    EXPECT_EQ(actual.paths, expected.paths);
    EXPECT_EQ(actual.hit, expected.hit);
    EXPECT_EQ(actual.stale, expected.stale);
    EXPECT_EQ(actual.negative, expected.negative);
    EXPECT_EQ(actual.refreshed, expected.refreshed);
    EXPECT_EQ(visit_deltas, lookup_deltas);
    EXPECT_EQ(visit_resolver.calls, lookup_resolver.calls);
    expect_same_stats(visited.stats(), looked_up.stats());
    EXPECT_EQ(visited.snapshot().dump(), looked_up.snapshot().dump());

    if (expected.stale) {
      ++seen[expected.refreshed ? "stale, revalidated" : "stale, resolver down"];
    } else if (expected.hit) {
      ++seen[expected.negative ? "negative hit" : "fresh hit"];
    } else if (expected.refreshed) {
      ++seen[expected.negative ? "resolved empty" : "resolved"];
    } else {
      ++seen["hard miss"];
    }
  }
  if (looked_up.stats().evictions > 0) ++seen["evicted"];
  return seen;
}

TEST(PathCache, VisitServesWhatLookupCopiesThroughEveryBranch) {
  const std::map<std::string, std::size_t> seen =
      run_twin_script(PathCacheConfig{.capacity = 3}, 2024, 800);
  for (const char* branch :
       {"fresh hit", "negative hit", "resolved", "resolved empty",
        "stale, revalidated", "stale, resolver down", "hard miss",
        "invalidated", "evicted"}) {
    EXPECT_GT(seen.count(branch), 0u) << "the script never reached: " << branch;
  }
}

TEST(PathCache, VisitServesWhatLookupCopiesInBypassMode) {
  const std::map<std::string, std::size_t> seen =
      run_twin_script(PathCacheConfig{.enabled = false}, 2025, 100);
  // Bypass mode re-resolves every lookup and flags no answer negative.
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.count("resolved"), 1u);
}

}  // namespace
}  // namespace upin::scion
