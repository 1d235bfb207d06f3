// control_plane.hpp — the host-side control plane: path lookup with
// lifetimes, revocation delivery, and graceful degradation.
//
// Composes the two lifetime mechanisms into the single object a host
// consults before sending anything:
//
//   * a RevocationLog turning FaultPlan windows into delivered SCMP
//     revocations (bounded, seeded propagation delay);
//   * a PathCache answering (src, dst) lookups path-server-style with
//     TTL, stale-while-revalidate and LRU bounds.
//
// `sync(now)` delivers pending revocations and dirty-marks the cache
// entries they cover; `live_paths()` then serves only paths with no
// delivered, unexpired revocation — which is the "no probe on a revoked
// path" invariant the churn property test pins.  When the local AS's
// path server is itself inside a server-down window, beaconing is
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
  /// fault plan, and cached paths of beaconing over the topology).
  /// `restore` replaces the cache content, re-resolving pairs the cache
  /// does not hold, and fast-forwards the delivery cursor to `as_of`
  /// without re-invalidating — the snapshot already reflects those
  /// deliveries.
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

  [[nodiscard]] std::vector<Path> resolve_raw(IsdAsn src, IsdAsn dst,
                                              util::SimTime now);

  /// Beaconing::paths: what lookups refresh from and restore re-resolves
  /// through.
  PathCache::Resolver resolve_;
  RevocationLog revocations_;
  PathCache cache_;
  /// Server-down windows of the local AS node (metric-free query path).
  std::vector<simnet::FaultWindow> local_down_windows_;
  std::unordered_map<AsPair, LiveReply, AsPairHash> live_replies_;
};

}  // namespace upin::scion
