#include "scion/control_plane.hpp"

#include <utility>

namespace upin::scion {

using util::SimTime;

ControlPlane::ControlPlane(
    std::uint64_t seed, ControlPlaneConfig config, const Topology& topology,
    const Beaconing& beaconing,
    const std::unordered_map<IsdAsn, simnet::NodeId>& node_of,
    const simnet::FaultPlan& faults, IsdAsn local_as)
    : resolve_([&beaconing](IsdAsn src, IsdAsn dst) {
        return beaconing.paths(src, dst);
      }),
      revocations_(seed, config.revocation, topology, node_of, faults),
      cache_(config.cache) {
  const auto local = node_of.find(local_as);
  if (local != node_of.end() && faults.active()) {
    local_down_windows_ = faults.server_down_windows(local->second);
  }
}

bool ControlPlane::beaconing_available(SimTime now) const {
  for (const simnet::FaultWindow& window : local_down_windows_) {
    if (window.start <= now && now < window.end) return false;
  }
  return true;
}

void ControlPlane::sync(SimTime now) {
  revocations_.poll(now, [&](const Revocation& event) {
    live_replies_.clear();
    cache_.invalidate_if([&](const Path& path) {
      const std::vector<PathHop>& hops = path.hops();
      if (event.kind == Revocation::Kind::kServerDown) {
        return !hops.empty() && hops.back().ia == event.from;
      }
      for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
        if ((hops[i].ia == event.from && hops[i + 1].ia == event.to) ||
            (hops[i].ia == event.to && hops[i + 1].ia == event.from)) {
          return true;
        }
      }
      return false;
    });
  });
}

std::vector<Path> ControlPlane::resolve_raw(IsdAsn src, IsdAsn dst,
                                            SimTime now) {
  PathCacheLookup looked_up =
      cache_.lookup(src, dst, now, resolve_, beaconing_available(now));
  // Expired-but-unrevoked paths stay usable, flagged stale: losing every
  // path to a lifetime boundary while beaconing is down would be a
  // self-inflicted outage the paper's testbed never had.
  for (Path& path : looked_up.paths) {
    if (path.expired(now)) path.set_status("stale");
  }
  return std::move(looked_up.paths);
}

std::vector<Path> ControlPlane::live_paths(IsdAsn src, IsdAsn dst,
                                           SimTime now) {
  const AsPair key{src, dst};
  const auto memo = live_replies_.find(key);
  if (memo != live_replies_.end() && memo->second.at == now) {
    return memo->second.paths;
  }

  std::vector<Path> paths = resolve_raw(src, dst, now);
  std::vector<Path> live;
  live.reserve(paths.size());
  for (Path& path : paths) {
    if (revocations_.path_revoked(path, now)) continue;
    live.push_back(std::move(path));
  }

  // The memo never outlives a delivery (sync clears it), so its only
  // bound is the number of pairs queried between deliveries; keep that
  // aligned with the path cache's own LRU capacity.
  if (live_replies_.size() >= cache_.config().capacity) live_replies_.clear();
  LiveReply& reply = live_replies_[key];
  reply.at = now;
  reply.paths = live;
  return live;
}

std::vector<Path> ControlPlane::annotated_paths(IsdAsn src, IsdAsn dst,
                                                SimTime now) {
  std::vector<Path> paths = resolve_raw(src, dst, now);
  for (Path& path : paths) {
    if (revocations_.path_revoked(path, now)) path.set_status("revoked");
  }
  return paths;
}

util::Status ControlPlane::restore(const util::Value& snapshot,
                                   SimTime as_of) {
  const util::Status status = cache_.restore(snapshot, resolve_);
  if (!status.ok()) return status;
  live_replies_.clear();
  revocations_.advance_cursor_to(as_of);
  return util::Status::success();
}

}  // namespace upin::scion
