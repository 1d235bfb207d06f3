// Tests of the host's probe life cycle (pick, run, occupy the clock,
// reclassify a dead path).
//
// Golden bytes: one fixed-seed script of ping, bwtestclient, traceroute
// and two-subflow multipath_ping calls under a fault storm (link flaps,
// server-down, slow and garble windows) that runs past the 6-hour
// segment lifetime.  Each call names its path by a listed, revoked,
// foreign, malformed or empty hop sequence.  The digest covers each
// call's error code and message, its reported values and the virtual
// clock after it, so any change to path picking, error classification or
// the time a probe occupies shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/host.hpp"
#include "scion/scionlab.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/strings.hpp"

namespace upin::apps {
namespace {

using scion::scionlab::kIreland;

constexpr std::uint64_t kSeed = 2500;
constexpr int kCalls = 2000;

std::string describe_rtt(const std::optional<double>& rtt) {
  return rtt.has_value() ? util::format("%a", *rtt) : "lost";
}

std::string describe_stats(const simnet::PingStats& stats) {
  std::string text = util::format("sent=%zu", stats.sent());
  for (const std::optional<double>& rtt : stats.rtt_ms) {
    text += ' ';
    text += describe_rtt(rtt);
  }
  return text;
}

std::string describe_bwtest(const simnet::BwtestResult& result) {
  return util::format("%a %a %llu %llu %d %a", result.attempted_mbps,
                      result.achieved_mbps,
                      static_cast<unsigned long long>(result.packets_sent),
                      static_cast<unsigned long long>(result.packets_lost),
                      result.frames_per_packet,
                      result.bottleneck_available_mbps);
}

std::string describe_error(const util::Error& error) {
  return std::string(util::to_string(error.code)) + ": " + error.message;
}

class ProbeScript {
 public:
  ProbeScript(ScionHost& host, const scion::ScionlabEnv& env)
      : host_(host), env_(env), rng_(kSeed) {}

  /// A hop sequence of the drawn kind for a path to `dst`.
  std::string draw_sequence(scion::IsdAsn dst) {
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        return listed(dst, false);
      case 1:
        return listed(dst, true);
      case 2:
        return "17-ffaa:1:f00#0,1 19-ffaa:0:1301#1,0";  // foreign
      case 3:
        return "17-ffaa:1:f00#0,1 not-a-hop";  // malformed
      default:
        return {};
    }
  }

  /// One scripted call; returns its description line.
  std::string call() {
    const scion::SnetAddress& dst =
        env_.servers[draw_index(env_.servers.size())];
    std::string line;
    switch (rng_.uniform_int(0, 3)) {
      case 0: {
        PingOptions options;
        options.count = static_cast<std::size_t>(rng_.uniform_int(1, 30));
        options.interval_s = rng_.uniform(0.05, 0.5);
        options.sequence = draw_sequence(dst.ia);
        const auto report = host_.ping(dst, options);
        line = "ping " + options.sequence + " -> ";
        if (report.ok()) {
          line += report.value().path.sequence() + " " +
                  describe_stats(report.value().stats);
        } else {
          line += describe_error(report.error());
        }
        tally(report.ok() ? "ok" : util::to_string(report.error().code));
        break;
      }
      case 1: {
        static const char* const kSpecs[] = {"3,1000,?,12Mbps",
                                             "3,MTU,?,12Mbps", "2,64,?,5Mbps"};
        BwtestOptions options;
        options.cs_spec = kSpecs[draw_index(3)];
        options.sc_spec = rng_.bernoulli(0.5) ? "" : kSpecs[draw_index(3)];
        options.sequence = draw_sequence(dst.ia);
        const auto report = host_.bwtestclient(dst, options);
        line = "bwtest " + options.sequence + " -> ";
        if (report.ok()) {
          line += report.value().path.sequence() + " cs " +
                  describe_bwtest(report.value().client_to_server) + " sc " +
                  describe_bwtest(report.value().server_to_client);
        } else {
          line += describe_error(report.error());
        }
        tally(report.ok() ? "ok" : util::to_string(report.error().code));
        break;
      }
      case 2: {
        const std::string sequence = draw_sequence(dst.ia);
        const auto report = host_.traceroute(dst, sequence);
        line = "traceroute " + sequence + " -> ";
        if (report.ok()) {
          line += report.value().path.sequence();
          for (const simnet::TraceHop& hop : report.value().trace.hops) {
            line += util::format(" %u:", static_cast<unsigned>(hop.node)) +
                    describe_rtt(hop.rtt_ms);
          }
        } else {
          line += describe_error(report.error());
        }
        tally(report.ok() ? "ok" : util::to_string(report.error().code));
        break;
      }
      default: {
        MultipathPingOptions options;
        options.count = static_cast<std::size_t>(rng_.uniform_int(1, 30));
        options.interval_s = rng_.uniform(0.05, 0.5);
        std::vector<SubflowSpec> subflows(2);
        for (SubflowSpec& subflow : subflows) {
          subflow.sequence = draw_sequence(dst.ia);
          subflow.weight = rng_.uniform(0.5, 3.0);
        }
        const auto report = host_.multipath_ping(dst, subflows, options);
        line = "multipath " + subflows[0].sequence + " | " +
               subflows[1].sequence + " -> ";
        if (report.ok()) {
          for (const MultipathPingReport::Subflow& subflow :
               report.value().subflows) {
            line += util::format("[%zu %d ", subflow.probes,
                                 subflow.ok ? 1 : 0) +
                    subflow.path.sequence() + " " +
                    (subflow.ok ? describe_stats(subflow.stats)
                                : describe_error(subflow.error)) +
                    "] ";
          }
          line += "aggregate " + describe_stats(report.value().aggregate);
        } else {
          line += describe_error(report.error());
        }
        tally(report.ok() ? "ok" : util::to_string(report.error().code));
        break;
      }
    }
    for (const char* death : {"revoked mid-probe", "expired mid-probe"}) {
      if (line.find(death) != std::string::npos) tally(death);
    }
    return line + util::format(" @%lld",
                               static_cast<long long>(
                                   host_.clock().now().count()));
  }

  /// Idle between calls, so the script spans many fault windows.
  void pause() {
    host_.clock().advance(util::sim_seconds(rng_.uniform(0.0, 40.0)));
  }

  [[nodiscard]] std::size_t count(const std::string& outcome) const {
    const auto it = outcomes_.find(outcome);
    return it == outcomes_.end() ? 0 : it->second;
  }

 private:
  /// A discovered path's sequence; with `revoked`, a path the control
  /// plane has revoked at this instant when there is one.
  std::string listed(scion::IsdAsn dst, bool revoked) {
    ShowpathsOptions options;
    options.max_paths = 40;
    const auto listings = host_.showpaths(dst, options);
    if (!listings.ok() || listings.value().empty()) return {};
    if (revoked) {
      for (const PathListing& listing : listings.value()) {
        if (listing.path.status() == "revoked") return listing.path.sequence();
      }
    }
    return listings.value()[draw_index(listings.value().size())]
        .path.sequence();
  }

  /// Uniform index into a non-empty range of `size` items.
  std::size_t draw_index(std::size_t size) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  void tally(const std::string& outcome) { ++outcomes_[outcome]; }

  ScionHost& host_;
  const scion::ScionlabEnv& env_;
  util::Rng rng_;
  std::map<std::string, std::size_t> outcomes_;
};

TEST(HostGolden, ProbeScriptUnderStorm) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  simnet::FaultPlanConfig faults;
  faults.link_flap_per_hour = 1.0;
  faults.server_down_per_hour = 1.0;
  faults.slow_per_hour = 2.0;
  faults.garble_prob = 0.1;
  simnet::NetworkConfig net;
  net.faults = faults;
  ScionHost host(env, kSeed, env.user_as, "10.0.8.1", net);

  ProbeScript script(host, env);
  util::Sha256 hasher;
  for (int i = 0; i < kCalls; ++i) {
    hasher.update(script.call());
    hasher.update("\n");
    script.pause();
  }

  // The storm must exercise every outcome the life cycle distinguishes.
  for (const char* outcome :
       {"ok", "revoked", "expired", "timeout", "unreachable", "bad_response",
        "not_found", "invalid_argument", "revoked mid-probe",
        "expired mid-probe"}) {
    EXPECT_GT(script.count(outcome), 0u) << outcome;
  }
  EXPECT_GT(util::to_seconds(host.clock().now()), 21600.0)
      << "the script must outlive the segment lifetime";
  EXPECT_EQ(util::to_hex(hasher.finish()),
            "e6c9568b96e6a9e0d4f68630ea8b01d63f77d2defd196e69aedfbf13659e9208");
}

TEST(ScionHost, ZeroCountPingSendsNothing) {
  // A zero-count ping is the zero-probe subflow: its path is still
  // picked, but nothing goes on the wire, so a destination fault cannot
  // fail it and the clock does not move.
  const scion::ScionlabEnv env = scion::scionlab_topology();
  simnet::FaultPlanConfig faults;
  faults.server_down_per_hour = 4.0;
  simnet::NetworkConfig net;
  net.server_error_prob = 0.0;
  net.faults = faults;
  HostConfig config;
  config.control_plane.revocation.enabled = false;
  ScionHost host(env, 42, env.user_as, "10.0.8.1", net, config);
  const scion::SnetAddress ireland{kIreland, "172.31.43.7"};

  const auto listings = host.showpaths(kIreland, {});
  ASSERT_TRUE(listings.ok());
  const auto route = host.route_of(listings.value().front().path);
  ASSERT_TRUE(route.ok());
  const auto windows =
      host.network().faults().server_down_windows(route.value().back());
  ASSERT_FALSE(windows.empty());
  host.clock().advance_to(windows.front().start + util::sim_seconds(1.0));

  PingOptions options;
  options.count = 0;
  const util::SimTime before = host.clock().now();
  const auto report = host.ping(ireland, options);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().stats.sent(), 0u);
  EXPECT_EQ(report.value().path.destination(), kIreland);
  EXPECT_EQ(host.clock().now(), before);
  // The count does not get round the path pick.
  options.sequence = "17-ffaa:1:f00#0,1 19-ffaa:0:1301#1,0";
  EXPECT_EQ(host.ping(ireland, options).error().code,
            util::ErrorCode::kNotFound);
  options.count = 1;
  options.sequence.clear();
  EXPECT_EQ(host.ping(ireland, options).error().code,
            util::ErrorCode::kUnreachable)
      << "one probe meets the dark server";
}

TEST(ScionHost, PinnedSequencesSeeEveryRevocation) {
  // The host keeps a route per sequence text, but not the pick: a pinned
  // path whose revocation was delivered before a probe is refused, on
  // the first call with that text and on every later one.
  const scion::ScionlabEnv env = scion::scionlab_topology();
  simnet::FaultPlanConfig faults;
  faults.link_flap_per_hour = 6.0;
  faults.server_down_per_hour = 2.0;
  simnet::NetworkConfig net;
  net.server_error_prob = 0.0;
  net.faults = faults;
  ScionHost host(env, 42, env.user_as, "10.0.8.1", net);

  std::vector<std::pair<scion::SnetAddress, std::string>> pinned;
  for (const std::size_t server : {2u, 4u, 9u}) {
    const scion::SnetAddress& dst = env.servers[server];
    const auto listings = host.showpaths(dst.ia, {});
    ASSERT_TRUE(listings.ok());
    for (const PathListing& listing : listings.value()) {
      pinned.emplace_back(dst, listing.path.sequence());
    }
  }
  std::size_t probes = 0;
  std::size_t revoked = 0;
  for (std::size_t step = 0; step < 600; ++step) {
    const auto& [dst, sequence] = pinned[step % pinned.size()];
    const util::SimTime before = host.clock().now();
    const util::Result<scion::Path> probed = [&]() -> util::Result<scion::Path> {
      if (step % 2 == 0) {
        PingOptions options;
        options.count = 3;
        options.sequence = sequence;
        auto report = host.ping(dst, options);
        if (!report.ok()) return report.error();
        return std::move(report.value().path);
      }
      BwtestOptions options;
      options.sequence = sequence;
      auto report = host.bwtestclient(dst, options);
      if (!report.ok()) return report.error();
      return std::move(report.value().path);
    }();
    if (probed.ok()) {
      ++probes;
      EXPECT_EQ(probed.value().sequence(), sequence);
      EXPECT_FALSE(host.control_plane().path_revoked(probed.value(), before))
          << "step " << step << ": probed a revoked path " << sequence;
    } else if (probed.error().code == util::ErrorCode::kRevoked &&
               probed.error().message.starts_with("path revoked by")) {
      ++revoked;
    }
    host.clock().advance(util::sim_seconds(20.0));
  }
  EXPECT_GT(probes, 100u);
  EXPECT_GT(revoked, 0u) << "the storm must revoke pinned paths";
}

}  // namespace
}  // namespace upin::apps
