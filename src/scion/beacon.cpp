#include "scion/beacon.hpp"

#include <algorithm>
#include <functional>
#include <set>

#include "simnet/geo.hpp"

namespace upin::scion {

Beaconing::Beaconing(const Topology& topology, BeaconConfig config)
    : topology_(topology), config_(config) {
  compute_up_segments();
  compute_core_paths();
  // Stamp the lifetime window on every precomputed segment.  Beaconing
  // happens once at virtual time zero; re-beaconing is modelled by the
  // path cache re-resolving, so the window is fixed per Beaconing.
  const util::SimTime expires = util::sim_seconds(config_.segment_lifetime_s);
  for (auto& [leaf, segments] : up_by_leaf_) {
    for (Segment& segment : segments) {
      segment.created_at = util::SimTime::zero();
      segment.expires_at = expires;
    }
  }
}

void Beaconing::compute_up_segments() {
  for (const AsInfo& info : topology_.ases()) {
    std::vector<Segment>& segments = up_by_leaf_[info.ia];
    if (info.role == AsRole::kCore) {
      segments.push_back(Segment{Segment::Type::kUp, {info.ia}});
      continue;
    }
    // DFS climbing parent links; a segment ends at the first core AS.
    std::vector<IsdAsn> stack{info.ia};
    const std::function<void()> climb = [&] {
      const IsdAsn current = stack.back();
      for (const IsdAsn parent : topology_.parents_of(current)) {
        if (std::find(stack.begin(), stack.end(), parent) != stack.end()) {
          continue;  // loop
        }
        stack.push_back(parent);
        const AsInfo* parent_info = topology_.find_as(parent);
        if (parent_info != nullptr && parent_info->role == AsRole::kCore) {
          segments.push_back(Segment{Segment::Type::kUp, stack});
        } else if (stack.size() < config_.max_up_segment_ases) {
          climb();
        }
        stack.pop_back();
      }
    };
    climb();
  }
}

void Beaconing::compute_core_paths() {
  std::vector<IsdAsn> cores;
  for (const AsInfo& info : topology_.ases()) {
    if (info.role == AsRole::kCore) cores.push_back(info.ia);
  }
  for (const IsdAsn start : cores) {
    std::vector<std::vector<IsdAsn>>& paths = core_from_[start];
    std::vector<IsdAsn> stack{start};
    const std::function<void()> walk = [&] {
      paths.push_back(stack);  // every simple prefix is a usable core path
      if (stack.size() >= config_.max_core_segment_ases) return;
      for (const IsdAsn next : topology_.neighbors(stack.back(), LinkType::kCore)) {
        if (std::find(stack.begin(), stack.end(), next) != stack.end()) continue;
        stack.push_back(next);
        walk();
        stack.pop_back();
      }
    };
    walk();
  }
}

const std::vector<Segment>& Beaconing::up_segments(IsdAsn leaf) const {
  const auto it = up_by_leaf_.find(leaf);
  if (it == up_by_leaf_.end()) return empty_;
  return it->second;
}

std::vector<Segment> Beaconing::core_segments(IsdAsn from, IsdAsn to) const {
  std::vector<Segment> result;
  const auto it = core_from_.find(from);
  if (it == core_from_.end()) return result;
  const util::SimTime expires = util::sim_seconds(config_.segment_lifetime_s);
  for (const std::vector<IsdAsn>& path : it->second) {
    if (path.back() == to) {
      result.push_back(Segment{Segment::Type::kCore, path,
                               util::SimTime::zero(), expires});
    }
  }
  return result;
}

std::vector<Segment> Beaconing::down_segments(IsdAsn core, IsdAsn leaf) const {
  std::vector<Segment> result;
  for (const Segment& up : up_segments(leaf)) {
    if (up.ases.back() != core) continue;
    Segment down;
    down.type = Segment::Type::kDown;
    down.ases.assign(up.ases.rbegin(), up.ases.rend());
    down.created_at = up.created_at;
    down.expires_at = up.expires_at;
    result.push_back(std::move(down));
  }
  return result;
}

Path Beaconing::materialize(const std::vector<IsdAsn>& ases) const {
  std::vector<PathHop> hops;
  hops.reserve(ases.size());
  double mtu = 9000.0;
  util::SimDuration latency = util::SimDuration::zero();

  for (std::size_t i = 0; i < ases.size(); ++i) {
    PathHop hop;
    hop.ia = ases[i];
    hops.push_back(hop);
  }
  for (std::size_t i = 0; i + 1 < ases.size(); ++i) {
    const AsLink* link = topology_.find_link(ases[i], ases[i + 1]);
    if (link == nullptr) continue;  // cannot happen for combined segments
    const bool forward = link->a == ases[i];
    hops[i].egress_if = forward ? link->interface_a : link->interface_b;
    hops[i + 1].ingress_if = forward ? link->interface_b : link->interface_a;
    mtu = std::min(mtu, link->mtu);
    const AsInfo* from = topology_.find_as(ases[i]);
    const AsInfo* to = topology_.find_as(ases[i + 1]);
    if (from != nullptr && to != nullptr) {
      latency += simnet::propagation_delay(
          simnet::haversine_km(from->location, to->location));
    }
  }
  Path path(std::move(hops), mtu, latency);
  // A combined path inherits the tightest segment lifetime; all segments
  // share one beaconing round here, so the window is uniform.
  path.set_lifetime(util::SimTime::zero(),
                    util::sim_seconds(config_.segment_lifetime_s));
  return path;
}

const std::vector<Path>& Beaconing::paths(IsdAsn src, IsdAsn dst) const {
  return combined_.get(AsPair{src, dst}, [&] { return combine(src, dst); });
}

std::vector<Path> Beaconing::combine(IsdAsn src, IsdAsn dst) const {
  std::vector<Path> result;
  if (src == dst) return result;
  if (topology_.find_as(src) == nullptr || topology_.find_as(dst) == nullptr) {
    return result;
  }

  // Collect candidate AS sequences; cycles introduced by gluing segments
  // are cut at their first occurrence, which implements SCION shortcuts
  // (crossing segments joined at the common AS).
  std::set<std::vector<IsdAsn>> sequences;
  const auto add_sequence = [&](const std::vector<IsdAsn>& raw) {
    std::vector<IsdAsn> simple;
    for (const IsdAsn ia : raw) {
      const auto seen = std::find(simple.begin(), simple.end(), ia);
      if (seen != simple.end()) {
        simple.erase(seen + 1, simple.end());  // cut the loop
      } else {
        simple.push_back(ia);
      }
    }
    if (simple.size() >= 2 && simple.front() == src && simple.back() == dst) {
      sequences.insert(std::move(simple));
    }
  };

  for (const Segment& up : up_segments(src)) {
    const IsdAsn core_src = up.ases.back();
    for (const Segment& down_reversed : up_segments(dst)) {
      const IsdAsn core_dst = down_reversed.ases.back();
      std::vector<IsdAsn> down(down_reversed.ases.rbegin(),
                               down_reversed.ases.rend());
      // Peering shortcuts: a peer link between an AS on the up segment
      // and an AS on the down segment bridges the two without touching
      // the cores (SCION allows this within and across ISDs).
      for (std::size_t i = 0; i < up.ases.size(); ++i) {
        for (std::size_t j = 0; j < down_reversed.ases.size(); ++j) {
          const AsLink* link =
              topology_.find_link(up.ases[i], down_reversed.ases[j]);
          if (link == nullptr || link->type != LinkType::kPeer) continue;
          std::vector<IsdAsn> full(up.ases.begin(),
                                   up.ases.begin() + static_cast<std::ptrdiff_t>(i) + 1);
          for (std::size_t k = j + 1; k-- > 0;) {
            full.push_back(down_reversed.ases[k]);
          }
          add_sequence(full);
        }
      }

      if (core_src == core_dst) {
        std::vector<IsdAsn> full = up.ases;
        full.insert(full.end(), down.begin() + 1, down.end());
        add_sequence(full);
        continue;
      }
      for (const Segment& core : core_segments(core_src, core_dst)) {
        std::vector<IsdAsn> full = up.ases;
        full.insert(full.end(), core.ases.begin() + 1, core.ases.end());
        full.insert(full.end(), down.begin() + 1, down.end());
        add_sequence(full);
      }
    }
  }

  // Decorate-sort: each path's sequence text, the last tie-breaker, is
  // formatted once instead of twice per comparison.
  struct Ranked {
    Path path;
    std::string sequence;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(sequences.size());
  for (const std::vector<IsdAsn>& sequence : sequences) {
    Path path = materialize(sequence);
    std::string text = path.sequence();
    ranked.push_back(Ranked{std::move(path), std::move(text)});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.path.hop_count() != b.path.hop_count()) {
      return a.path.hop_count() < b.path.hop_count();
    }
    if (a.path.static_latency() != b.path.static_latency()) {
      return a.path.static_latency() < b.path.static_latency();
    }
    return a.sequence < b.sequence;
  });
  ranked.resize(std::min(ranked.size(), config_.max_paths));
  result.reserve(ranked.size());
  for (Ranked& entry : ranked) result.push_back(std::move(entry.path));
  return result;
}

}  // namespace upin::scion
