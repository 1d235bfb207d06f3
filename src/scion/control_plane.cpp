#include "scion/control_plane.hpp"

#include <algorithm>
#include <span>
#include <utility>

namespace upin::scion {

using util::SimTime;

ControlPlane::ControlPlane(
    std::uint64_t seed, ControlPlaneConfig config, const Topology& topology,
    const Beaconing& beaconing,
    const std::unordered_map<IsdAsn, simnet::NodeId>& node_of,
    const simnet::FaultPlan& faults, IsdAsn local_as)
    : revocations_(seed, config.revocation, topology, node_of, faults),
      cache_(
          [&beaconing](IsdAsn src, IsdAsn dst) -> const std::vector<Path>& {
            return beaconing.paths(src, dst);
          },
          config.cache) {
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

Path ControlPlane::served_path(const Path& path, bool served_stale,
                               SimTime now) const {
  Path served = path;
  // Expired-but-unrevoked paths stay usable, flagged stale: losing every
  // path to a lifetime boundary while beaconing is down would be a
  // self-inflicted outage the paper's testbed never had.
  if (served_stale || path.expired(now)) served.set_status("stale");
  if (revocations_.path_revoked(path, now)) served.set_status("revoked");
  return served;
}

std::vector<Path> ControlPlane::live_paths(IsdAsn src, IsdAsn dst,
                                           SimTime now) {
  const AsPair key{src, dst};
  const auto memo = live_replies_.find(key);
  if (memo != live_replies_.end() && memo->second.at == now) {
    return memo->second.paths;
  }

  const PathCacheServed served =
      cache_.serve(src, dst, now, beaconing_available(now));
  std::vector<Path> live;
  live.reserve(served.paths.size());
  for (const Path& path : served.paths) {
    Path annotated = served_path(path, served.stale, now);
    if (annotated.status() != "revoked") live.push_back(std::move(annotated));
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
  const PathCacheServed served =
      cache_.serve(src, dst, now, beaconing_available(now));
  std::vector<Path> paths;
  paths.reserve(served.paths.size());
  for (const Path& path : served.paths) {
    paths.push_back(served_path(path, served.stale, now));
  }
  return paths;
}

PathPick ControlPlane::pick(IsdAsn src, IsdAsn dst,
                            const std::vector<IsdAsn>& ases, SimTime now) {
  const PathCacheServed served =
      cache_.serve(src, dst, now, beaconing_available(now));
  const std::span<const Path> paths = served.paths;
  const Path* chosen = nullptr;
  if (ases.empty()) {
    const auto live =
        std::find_if(paths.begin(), paths.end(), [&](const Path& path) {
          return !revocations_.path_revoked(path, now);
        });
    if (live != paths.end()) {
      chosen = &*live;
    } else if (!paths.empty()) {
      chosen = &paths.front();
    }
  } else {
    const auto match =
        std::find_if(paths.begin(), paths.end(), [&ases](const Path& path) {
          return std::equal(path.hops().begin(), path.hops().end(),
                            ases.begin(), ases.end(),
                            [](const PathHop& hop, IsdAsn ia) {
                              return hop.ia == ia;
                            });
        });
    if (match != paths.end()) chosen = &*match;
  }
  PathPick pick;
  pick.any = !paths.empty();
  if (chosen != nullptr) pick.path = served_path(*chosen, served.stale, now);
  return pick;
}

util::Status ControlPlane::restore(const util::Value& snapshot,
                                   SimTime as_of) {
  const util::Status status = cache_.restore(snapshot);
  if (!status.ok()) return status;
  live_replies_.clear();
  revocations_.advance_cursor_to(as_of);
  return util::Status::success();
}

}  // namespace upin::scion
