// control_plane.hpp — the host-side control plane: path lookup with
// lifetimes, revocation delivery, and graceful degradation.
//
// Composes the two lifetime mechanisms into the single object a host
// consults before sending anything:
//
//   * a RevocationLog turning FaultPlan windows into delivered SCMP
//     revocations (bounded, seeded propagation delay);
//   * a PathCache answering (src, dst) lookups path-server-style with
//     TTL, stale-while-revalidate and LRU bounds, over the paths
//     `Beaconing::paths` keeps.
//
// `sync(now)` delivers pending revocations and dirty-marks the cache
// entries they cover.  Every reply (`live_paths`, `annotated_paths`,
// `pick`) gives a served path its statuses by one rule: "stale" when the
// cache served it stale or its lifetime has passed, then "revoked" when a
// delivered revocation covers it.  `live_paths()` serves only paths with
// no delivered, unexpired revocation — which is the "no probe on a
// revoked path" invariant the churn property test pins.  When the local
// AS's path server is itself inside a server-down window, beaconing is
// unavailable and the cache degrades to serving stale entries instead of
// failing lookups.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "scion/beacon.hpp"
#include "scion/path.hpp"
#include "scion/path_cache.hpp"
#include "scion/revocation.hpp"
#include "scion/topology.hpp"
#include "simnet/faultplan.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"

namespace upin::scion {

struct ControlPlaneConfig {
  PathCacheConfig cache;
  RevocationConfig revocation;
};

/// Outcome of `ControlPlane::pick`.
struct PathPick {
  bool any = false;  ///< the cache served at least one path
  /// The chosen path, annotated as `annotated_paths` annotates it; unset
  /// when no path matched (or none was served).
  std::optional<Path> path;
};

class ControlPlane {
 public:
  /// `topology`, `beaconing` and `faults` must outlive the control plane
  /// (the owning host keeps all three).
  ControlPlane(std::uint64_t seed, ControlPlaneConfig config,
               const Topology& topology, const Beaconing& beaconing,
               const std::unordered_map<IsdAsn, simnet::NodeId>& node_of,
               const simnet::FaultPlan& faults, IsdAsn local_as);

  /// Deliver every revocation due by `now`; delivered events dirty-mark
  /// the cache entries whose paths they cover.  Idempotent per instant.
  void sync(util::SimTime now);

  /// Paths src→dst usable for sending at `now`: cache-served, with
  /// revoked paths removed.  Expired-but-unrevoked and cache-stale paths
  /// are kept, flagged with status "stale".
  ///
  /// Repeated lookups for the same pair at the same instant are served
  /// from a filtered-reply memo keyed by the (src, dst) pair itself, so a
  /// memo hit costs one hash probe and a copy of the reply, with no text
  /// formatted (the expensive part of a miss is the per-hop revocation
  /// filter, and liveness is a pure function of `now`); the memo is
  /// dropped whenever `sync` delivers an event.
  [[nodiscard]] std::vector<Path> live_paths(IsdAsn src, IsdAsn dst,
                                             util::SimTime now);

  /// All discovered paths src→dst with liveness annotated on status
  /// ("alive" | "stale" | "revoked") — what `showpaths` renders.
  [[nodiscard]] std::vector<Path> annotated_paths(IsdAsn src, IsdAsn dst,
                                                  util::SimTime now);

  /// The one path src→dst a probe needs, chosen from the cache-served
  /// paths in place with a single cache lookup; only the chosen path is
  /// copied.  With a non-empty `ases` it is the first path whose hop ASes
  /// equal `ases`; with an empty one, the first unrevoked path, else the
  /// first path.  Its status is what `annotated_paths` reports for it.
  [[nodiscard]] PathPick pick(IsdAsn src, IsdAsn dst,
                              const std::vector<IsdAsn>& ases,
                              util::SimTime now);

  /// Is the local AS's path infrastructure reachable at `now`?  False
  /// while the local node sits in a server-down window: no re-beaconing,
  /// the cache serves stale.
  [[nodiscard]] bool beaconing_available(util::SimTime now) const;

  [[nodiscard]] bool path_revoked(const Path& path, util::SimTime now) const {
    return revocations_.path_revoked(path, now);
  }
  [[nodiscard]] bool hops_revoked(const std::vector<IsdAsn>& ases,
                                  util::SimTime now) const {
    return revocations_.hops_revoked(ases, now);
  }
  [[nodiscard]] std::optional<util::SimTime> revoked_since(
      const Path& path, util::SimTime now) const {
    return revocations_.revoked_since(path, now);
  }

  [[nodiscard]] const RevocationLog& revocations() const noexcept {
    return revocations_;
  }
  [[nodiscard]] PathCache& cache() noexcept { return cache_; }
  [[nodiscard]] const PathCache& cache() const noexcept { return cache_; }

  /// Checkpoint support: the cache's entry metadata is the only state that
  /// needs saving (the revocation log is a pure function of the seed and
  /// fault plan, and the paths of beaconing over the topology).
  /// `restore` replaces the cache content and fast-forwards the delivery
  /// cursor to `as_of` without re-invalidating — the snapshot already
  /// reflects those deliveries.
  [[nodiscard]] util::Value checkpoint() const { return cache_.snapshot(); }
  [[nodiscard]] util::Status restore(const util::Value& snapshot,
                                     util::SimTime as_of);

 private:
  /// One memoized `live_paths` reply: valid only for lookups at exactly
  /// `at` and only until the next delivered revocation.
  struct LiveReply {
    util::SimTime at{};
    std::vector<Path> paths;
  };

  /// A copy of `path`, served by the cache (`served_stale` when the entry
  /// was served stale), with the statuses every reply gives it: "stale"
  /// when served stale or expired, then "revoked" when a delivered
  /// revocation covers it.
  [[nodiscard]] Path served_path(const Path& path, bool served_stale,
                                 util::SimTime now) const;

  RevocationLog revocations_;
  PathCache cache_;
  /// Server-down windows of the local AS node (metric-free query path).
  std::vector<simnet::FaultWindow> local_down_windows_;
  std::unordered_map<AsPair, LiveReply, AsPairHash> live_replies_;
};

}  // namespace upin::scion
