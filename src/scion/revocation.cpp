#include "scion/revocation.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace upin::scion {

using util::SimTime;

namespace {

obs::Counter& emitted_counter() {
  return obs::Registry::global().counter("upin_revocations_emitted_total");
}

obs::Counter& applied_counter() {
  return obs::Registry::global().counter("upin_revocations_applied_total");
}

}  // namespace

RevocationLog::RevocationLog(
    std::uint64_t seed, RevocationConfig config, const Topology& topology,
    const std::unordered_map<IsdAsn, simnet::NodeId>& node_of,
    const simnet::FaultPlan& faults) {
  if (!config.enabled || !faults.active()) return;
  const util::Rng master(seed ^ util::fnv1a64("revocation"));

  // Propagation delay for one event: forked per (entity, window index) so
  // inserting or removing one window never reshuffles another's draw.
  const auto delay = [&](const std::string& stream, std::size_t index) {
    util::Rng rng = master.fork(stream + "#" + std::to_string(index));
    return util::sim_seconds(
        rng.uniform(config.min_delay_s, config.max_delay_s));
  };

  const auto emit_link = [&](IsdAsn from, IsdAsn to) {
    const auto from_node = node_of.find(from);
    const auto to_node = node_of.find(to);
    if (from_node == node_of.end() || to_node == node_of.end()) return;
    const std::vector<simnet::FaultWindow>& windows =
        faults.link_flap_windows(from_node->second, to_node->second);
    const std::string stream =
        "link:" + from.to_string() + ">" + to.to_string();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      Revocation event;
      event.kind = Revocation::Kind::kLinkDown;
      event.from = from;
      event.to = to;
      event.fault_start = windows[i].start;
      event.fault_end = windows[i].end;
      event.delivered_at = windows[i].start + delay(stream, i);
      events_.push_back(event);
    }
  };

  for (const AsLink& link : topology.links()) {
    emit_link(link.a, link.b);
    emit_link(link.b, link.a);
  }

  for (const AsInfo& info : topology.ases()) {
    const auto node = node_of.find(info.ia);
    if (node == node_of.end()) continue;
    const std::vector<simnet::FaultWindow>& windows =
        faults.server_down_windows(node->second);
    const std::string stream = "as:" + info.ia.to_string();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      Revocation event;
      event.kind = Revocation::Kind::kServerDown;
      event.from = info.ia;
      event.to = info.ia;
      event.fault_start = windows[i].start;
      event.fault_end = windows[i].end;
      event.delivered_at = windows[i].start + delay(stream, i);
      events_.push_back(event);
    }
  }

  std::sort(events_.begin(), events_.end(),
            [](const Revocation& a, const Revocation& b) {
              if (a.delivered_at != b.delivered_at) {
                return a.delivered_at < b.delivered_at;
              }
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.fault_start < b.fault_start;
            });

  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Revocation& event = events_[i];
    if (event.kind == Revocation::Kind::kLinkDown) {
      by_link_[event.from][event.to].push_back(i);
    } else {
      by_as_[event.from].push_back(i);
    }
  }
  emitted_counter().add(events_.size());
}

bool RevocationLog::covered(const std::vector<std::size_t>& indices,
                            SimTime t) const noexcept {
  for (const std::size_t index : indices) {
    const Revocation& event = events_[index];
    if (event.delivered_at <= t && t < event.fault_end) return true;
  }
  return false;
}

bool RevocationLog::link_revoked(IsdAsn from, IsdAsn to, SimTime t) const {
  const auto outer = by_link_.find(from);
  if (outer == by_link_.end()) return false;
  const auto inner = outer->second.find(to);
  if (inner == outer->second.end()) return false;
  return covered(inner->second, t);
}

bool RevocationLog::as_revoked(IsdAsn ia, SimTime t) const {
  const auto it = by_as_.find(ia);
  if (it == by_as_.end()) return false;
  return covered(it->second, t);
}

bool RevocationLog::hops_revoked(const std::vector<IsdAsn>& ases,
                                 SimTime t) const {
  if (ases.empty()) return false;
  for (std::size_t i = 0; i + 1 < ases.size(); ++i) {
    if (link_revoked(ases[i], ases[i + 1], t)) return true;
    if (link_revoked(ases[i + 1], ases[i], t)) return true;
  }
  return as_revoked(ases.back(), t);
}

bool RevocationLog::path_revoked(const Path& path, SimTime t) const {
  const std::vector<PathHop>& hops = path.hops();
  if (hops.empty()) return false;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    if (link_revoked(hops[i].ia, hops[i + 1].ia, t)) return true;
    if (link_revoked(hops[i + 1].ia, hops[i].ia, t)) return true;
  }
  return as_revoked(hops.back().ia, t);
}

std::optional<SimTime> RevocationLog::revoked_since(const Path& path,
                                                    SimTime t) const {
  std::optional<SimTime> earliest;
  const auto consider = [&](const std::vector<std::size_t>& indices) {
    for (const std::size_t index : indices) {
      const Revocation& event = events_[index];
      if (event.delivered_at <= t && t < event.fault_end) {
        if (!earliest || event.delivered_at < *earliest) {
          earliest = event.delivered_at;
        }
      }
    }
  };
  const auto consider_link = [&](IsdAsn from, IsdAsn to) {
    const auto outer = by_link_.find(from);
    if (outer == by_link_.end()) return;
    const auto inner = outer->second.find(to);
    if (inner == outer->second.end()) return;
    consider(inner->second);
  };
  const std::vector<PathHop>& hops = path.hops();
  if (hops.empty()) return earliest;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    consider_link(hops[i].ia, hops[i + 1].ia);
    consider_link(hops[i + 1].ia, hops[i].ia);
  }
  const auto as_it = by_as_.find(hops.back().ia);
  if (as_it != by_as_.end()) consider(as_it->second);
  return earliest;
}

std::size_t RevocationLog::poll(
    SimTime now, const std::function<void(const Revocation&)>& on_deliver) {
  std::size_t fired = 0;
  while (cursor_ < events_.size() && events_[cursor_].delivered_at <= now) {
    if (on_deliver) on_deliver(events_[cursor_]);
    ++cursor_;
    ++fired;
  }
  if (fired > 0) applied_counter().add(fired);
  return fired;
}

void RevocationLog::advance_cursor_to(SimTime now) noexcept {
  while (cursor_ < events_.size() && events_[cursor_].delivered_at <= now) {
    ++cursor_;
  }
}

}  // namespace upin::scion
