// path_cache.hpp — a path-server-style lookup cache for combined paths.
//
// Segment combination enumerates every up × core × down candidate; at
// SCIONLab scale that is already hundreds of combinations per AS pair.
// Real SCION deployments answer path lookups from a path-server cache,
// re-resolving an entry when it ages out or a revocation covers it.
// This cache mirrors that protocol (`Beaconing::paths` keeps each pair's
// combination, so in this model a re-resolve costs a copy; when one
// happens is still this cache's decision):
//
//   * keyed by the (src, dst) IsdAsn pair itself (no text key is
//     formatted per lookup), bounded size, LRU eviction;
//   * entries carry a TTL; past it the entry is refreshed, but within a
//     configurable grace window the *old* paths are served immediately,
//     flagged stale (stale-while-revalidate);
//   * lookups that resolve to zero paths are cached too (negative
//     entries) with their own, shorter TTL;
//   * revocation delivery marks covering entries dirty, forcing a
//     re-resolve on next use;
//   * when the resolver itself is unavailable (beaconing inside a fault
//     window) stale entries are served at any age — graceful degradation
//     over a hard miss.
//
// Because `Beaconing::paths` is a pure function of the topology, a cached
// answer filtered by revocation state is always content-identical to a
// fresh recombination under the same filter — the invariant the
// `fig4_reachability --churn` bench pins.  Every entry's paths are
// therefore exactly the resolver's answer for its pair.
//
// The cache is checkpointable on that invariant: `snapshot()` records
// each entry's metadata only (pair, resolution time, negative and dirty
// flags, LRU position), and `restore()` rebuilds the paths through the
// resolver, so a crashed campaign resumes with the identical cache
// trajectory from a checkpoint of a few KB.  Not thread-safe; one cache
// belongs to one host.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "scion/path.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace upin::scion {

struct PathCacheConfig {
  bool enabled = true;
  std::size_t capacity = 256;   ///< entries (AS pairs), LRU-evicted
  double ttl_s = 300.0;         ///< entry freshness window
  double stale_serve_s = 60.0;  ///< grace window: serve stale + revalidate
  double negative_ttl_s = 30.0;  ///< lifetime of cached empty answers
};

/// How one cache lookup was served.
struct PathCacheServed {
  bool hit = false;       ///< served from the cache (fresh or stale)
  bool stale = false;     ///< served past its TTL
  bool negative = false;  ///< served from a cached empty answer
  bool refreshed = false;  ///< this lookup re-resolved the entry
};

/// Outcome of one copying cache lookup: the served paths, each flagged
/// "stale" when the lookup was served stale.
struct PathCacheLookup : PathCacheServed {
  std::vector<Path> paths;
};

class PathCache {
 public:
  /// Resolves (src, dst) to paths — in practice Beaconing::paths.
  using Resolver = std::function<std::vector<Path>(IsdAsn, IsdAsn)>;

  /// Local per-instance counters (the obs registry is process-global and
  /// shared across hosts; tests want the per-cache view).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stale_served = 0;
    std::uint64_t evictions = 0;
    std::uint64_t negative_hits = 0;
    std::uint64_t invalidations = 0;
  };

  explicit PathCache(PathCacheConfig config = {});

  /// Sees the served paths in place and how they were served.
  using Visitor =
      std::function<void(const std::vector<Path>&, const PathCacheServed&)>;

  /// Look up paths src→dst at `now` and hand them to `fn` in place, once,
  /// without copying them.  `resolver_available` is false while beaconing
  /// is inside a fault window: no refresh happens and stale entries are
  /// served at any age.  Stale paths keep their cached status (only
  /// `lookup` flags them).  In the stale-while-revalidate window `fn` runs
  /// before the refresh, so it sees the old paths.  `fn` must not call
  /// back into the cache: the paths it sees are the entry's own.  One
  /// visit counts as one lookup in the stats and the global counters.
  void visit(IsdAsn src, IsdAsn dst, util::SimTime now,
             const Resolver& resolve, bool resolver_available,
             const Visitor& fn);

  /// `visit`, returning a copy of the served paths, each flagged "stale"
  /// when the lookup was served stale.
  [[nodiscard]] PathCacheLookup lookup(IsdAsn src, IsdAsn dst,
                                       util::SimTime now,
                                       const Resolver& resolve,
                                       bool resolver_available = true);

  /// Mark every entry containing a path matching `covered` dirty; dirty
  /// entries re-resolve on their next lookup.  Returns entries marked.
  std::size_t invalidate_if(const std::function<bool(const Path&)>& covered);

  void clear();
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const PathCacheConfig& config() const noexcept {
    return config_;
  }

  /// Checkpoint of the observable state: one {src, dst, resolved_at_ns,
  /// negative, dirty} object per entry, most recently used first.  Paths
  /// are not recorded; the local Stats counters are not either (the obs
  /// registry carries the metrics story).
  [[nodiscard]] util::Value snapshot() const;

  /// Replace the content with `value`, re-resolving each entry's paths
  /// through `resolve`, which must be the resolver the snapshot's cache
  /// used.  Pairs this cache already holds keep their paths instead (by
  /// the purity invariant they are the resolver's answer).  Any other
  /// field of an entry, such as a `paths` array, is ignored.  A snapshot
  /// with a missing or mistyped field, bad ISD-AS text, a pair listed
  /// twice, or a `negative` flag the resolver contradicts (a checkpoint of
  /// another topology) is rejected with kParseError and leaves the cache
  /// unchanged.
  [[nodiscard]] util::Status restore(const util::Value& value,
                                     const Resolver& resolve);

 private:
  struct Entry {
    IsdAsn src{};
    IsdAsn dst{};
    std::vector<Path> paths;
    util::SimTime resolved_at{};
    bool negative = false;
    bool dirty = false;
  };
  using EntryList = std::list<Entry>;

  void refresh(Entry& entry, util::SimTime now, const Resolver& resolve);
  void touch(EntryList::iterator it);
  void evict_to_capacity();

  PathCacheConfig config_{};
  EntryList entries_;  ///< front = most recently used
  std::unordered_map<AsPair, EntryList::iterator, AsPairHash> index_;
  Stats stats_{};
};

}  // namespace upin::scion
