#include "simnet/faultplan.hpp"

#include "obs/metrics.hpp"

namespace upin::simnet {

using util::Rng;
using util::SimTime;

namespace {

/// Activation counters: how often each fault class actually intercepted
/// an operation (a scheduled window that no probe lands in counts zero).
/// Lets a run's metric dump answer "was the breaker reacting to injected
/// faults or to a bug?" without replaying the schedule.
struct FaultMetrics {
  obs::Counter& server_down;
  obs::Counter& slow_responder;
  obs::Counter& link_flap;
  obs::Counter& garbled;

  static FaultMetrics& get() {
    static FaultMetrics metrics{
        obs::Registry::global().counter(
            "upin_simnet_fault_server_down_hits_total"),
        obs::Registry::global().counter("upin_simnet_fault_slow_hits_total"),
        obs::Registry::global().counter(
            "upin_simnet_fault_link_flap_hits_total"),
        obs::Registry::global().counter("upin_simnet_fault_garbled_hits_total"),
    };
    return metrics;
  }
};

}  // namespace

FaultPlan::FaultPlan(std::uint64_t seed, FaultPlanConfig config)
    : config_(config), master_(seed) {}

std::vector<FaultWindow> FaultPlan::schedule(const std::string& stream,
                                             double per_hour, double min_s,
                                             double max_s) const {
  std::vector<FaultWindow> windows;
  if (per_hour <= 0.0 || config_.horizon_s <= 0.0) return windows;
  // Poisson arrivals: exponential gaps with mean 3600/per_hour, each
  // episode lasting uniform [min_s, max_s].  Drawn from the stream label
  // alone, so the schedule is independent of whatever else consumed
  // randomness, and so it can be drawn once per entity and kept.
  Rng rng = master_.fork(stream);
  const double rate_per_s = per_hour / 3600.0;
  double t = 0.0;
  while (true) {
    t += rng.exponential(rate_per_s);
    if (t >= config_.horizon_s) break;
    const double duration = rng.uniform(min_s, max_s);
    FaultWindow window;
    window.start = util::sim_seconds(t);
    window.end = util::sim_seconds(t + duration);
    windows.push_back(window);
    t += duration;
  }
  return windows;
}

bool FaultPlan::covers(const std::vector<FaultWindow>& windows,
                       SimTime t) noexcept {
  for (const FaultWindow& window : windows) {
    if (t >= window.start && t < window.end) return true;
  }
  return false;
}

const std::vector<FaultWindow>& FaultPlan::server_down_windows(
    std::uint32_t node) const {
  return down_.get(node, [&] {
    return schedule("fault:down:" + std::to_string(node),
                    config_.server_down_per_hour, config_.server_down_min_s,
                    config_.server_down_max_s);
  });
}

const std::vector<FaultWindow>& FaultPlan::slow_windows(
    std::uint32_t node) const {
  return slow_.get(node, [&] {
    return schedule("fault:slow:" + std::to_string(node),
                    config_.slow_per_hour, config_.slow_min_s,
                    config_.slow_max_s);
  });
}

const std::vector<FaultWindow>& FaultPlan::link_flap_windows(
    std::uint32_t from, std::uint32_t to) const {
  return flap_.get((static_cast<std::uint64_t>(from) << 32) | to, [&] {
    return schedule(
        "fault:flap:" + std::to_string(from) + ">" + std::to_string(to),
        config_.link_flap_per_hour, config_.link_flap_min_s,
        config_.link_flap_max_s);
  });
}

bool FaultPlan::server_down(std::uint32_t node, SimTime t) const {
  if (config_.server_down_per_hour <= 0.0) return false;
  const bool hit = covers(server_down_windows(node), t);
  if (hit) FaultMetrics::get().server_down.add();
  return hit;
}

bool FaultPlan::slow_responder(std::uint32_t node, SimTime t) const {
  if (config_.slow_per_hour <= 0.0) return false;
  const bool hit = covers(slow_windows(node), t);
  if (hit) FaultMetrics::get().slow_responder.add();
  return hit;
}

bool FaultPlan::link_flapped(std::uint32_t from, std::uint32_t to,
                             SimTime t) const {
  if (config_.link_flap_per_hour <= 0.0) return false;
  const bool hit = covers(link_flap_windows(from, to), t);
  if (hit) FaultMetrics::get().link_flap.add();
  return hit;
}

bool FaultPlan::garbled(std::string_view op_label, SimTime t) const {
  if (config_.garble_prob <= 0.0) return false;
  Rng rng = master_.fork("fault:garble:" + std::string(op_label) + ":" +
                         std::to_string(t.count()));
  const bool hit = rng.bernoulli(config_.garble_prob);
  if (hit) FaultMetrics::get().garbled.add();
  return hit;
}

}  // namespace upin::simnet
