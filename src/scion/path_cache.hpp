// path_cache.hpp — a path-server-style cache of path lifetimes.
//
// Segment combination enumerates every up × core × down candidate; at
// SCIONLab scale that is already hundreds of combinations per AS pair.
// Real SCION deployments answer path lookups from a path-server cache,
// re-resolving an entry when it ages out or a revocation covers it.
// This cache models that protocol's lifetimes; the paths themselves stay
// with the resolver (`Beaconing::paths`, which keeps each pair's
// combination), so an entry is metadata only and a lookup reads the
// resolver's kept answer in place:
//
//   * keyed by the (src, dst) IsdAsn pair itself (no text key is
//     formatted per lookup), bounded size, LRU eviction;
//   * entries carry a TTL; past it the entry is refreshed, but within a
//     configurable grace window the answer is served immediately,
//     flagged stale (stale-while-revalidate);
//   * lookups that resolve to zero paths are cached too (negative
//     entries) with their own, shorter TTL;
//   * revocation delivery marks covering entries dirty, forcing a
//     re-resolve on next use;
//   * when the resolver itself is unavailable (beaconing inside a fault
//     window) stale entries are served at any age — graceful degradation
//     over a hard miss.
//
// Because `Beaconing::paths` is a pure function of the topology, what an
// entry would have held when it was resolved is exactly the resolver's
// answer now, so serving that answer for a stale entry is serving the
// old paths; a served answer filtered by revocation state is therefore
// content-identical to a fresh recombination under the same filter — the
// invariant the `fig4_reachability --churn` bench pins.
//
// The cache is checkpointable: `snapshot()` records each entry (pair,
// resolution time, negative and dirty flags, LRU position), and
// `restore()` checks each `negative` flag against the resolver, so a
// crashed campaign resumes with the identical cache trajectory from a
// checkpoint of a few KB.  Not thread-safe; one cache belongs to one
// host.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
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

/// How one cache lookup was served, and what it served.
struct PathCacheServed {
  bool hit = false;       ///< served from the cache (fresh or stale)
  bool stale = false;     ///< served past its TTL
  bool negative = false;  ///< served from a cached empty answer
  bool refreshed = false;  ///< this lookup re-resolved the entry
  /// The resolver's answer for the pair, in place; empty on a hard miss
  /// or a negative entry.  Valid as long as the resolver's answers are.
  std::span<const Path> paths;
};

class PathCache {
 public:
  /// Resolves (src, dst) to paths — in practice Beaconing::paths.  Must be
  /// pure (the same answer for a pair on every call) and return a
  /// reference that stays valid for the cache's lifetime.
  using Resolver =
      std::function<const std::vector<Path>&(IsdAsn, IsdAsn)>;

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

  explicit PathCache(Resolver resolve, PathCacheConfig config = {});

  /// Look up paths src→dst at `now`.  `resolver_available` is false while
  /// beaconing is inside a fault window: no refresh happens and stale
  /// entries are served at any age.  Served paths keep the resolver's
  /// statuses; the caller applies `stale`.  One call counts as one lookup
  /// in the stats and the global counters.
  [[nodiscard]] PathCacheServed serve(IsdAsn src, IsdAsn dst,
                                      util::SimTime now,
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

  /// Replace the content with `value`, which must come from a cache over
  /// the same resolver.  Any other field of an entry, such as a `paths`
  /// array, is ignored.  A snapshot with a missing or mistyped field, bad
  /// ISD-AS text, a pair listed twice, or a `negative` flag the resolver
  /// contradicts (a checkpoint of another topology) is rejected with
  /// kParseError and leaves the cache unchanged.
  [[nodiscard]] util::Status restore(const util::Value& value);

 private:
  struct Entry {
    IsdAsn src{};
    IsdAsn dst{};
    util::SimTime resolved_at{};
    bool negative = false;
    bool dirty = false;
  };
  using EntryList = std::list<Entry>;

  /// Re-resolve `entry` at `now`; returns the resolver's answer.
  const std::vector<Path>& refresh(Entry& entry, util::SimTime now);
  void touch(EntryList::iterator it);
  void evict_to_capacity();

  Resolver resolve_;
  PathCacheConfig config_{};
  EntryList entries_;  ///< front = most recently used
  std::unordered_map<AsPair, EntryList::iterator, AsPairHash> index_;
  Stats stats_{};
};

}  // namespace upin::scion
