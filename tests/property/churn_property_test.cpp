// Control-plane churn properties (the lifetimes tentpole's pin):
//
//   1. No probe is ever sent on a path whose revocation was delivered —
//      under a deterministic flap storm, every probed path was live at
//      probe start.
//   2. When a pinned path is revoked, the Path Controller fails over to
//      a policy-conformant live alternative instead of surfacing the
//      error.
//   3. Kill-then-resume under the same storm is bit-identical: same
//      paths_stats documents AND the same final path-cache state.
//   4. A control plane restored from a checkpoint (entry metadata, paths
//      re-resolved) answers every later lookup exactly as the original
//      does, from the current format and from the older one that carried
//      every path in full.
//   5. Cache-served paths equal a fresh recombination at any instant,
//      inside server-down windows too: the invariant restore relies on.
//   6. `ControlPlane::pick` (one path, read from the cache in place)
//      equals the reduction of `annotated_paths` probe dispatch used to
//      make, with the same cache trajectory, cached and bypassed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "docdb/database.hpp"
#include "measure/testsuite.hpp"
#include "scion/scionlab.hpp"
#include "select/selector.hpp"
#include "support/temp_path.hpp"
#include "upin/controller.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace upin {
namespace {

using util::SimTime;

simnet::NetworkConfig storm_config() {
  simnet::FaultPlanConfig faults;
  faults.link_flap_per_hour = 6.0;
  faults.server_down_per_hour = 2.0;
  simnet::NetworkConfig config;
  config.server_error_prob = 0.0;
  config.faults = faults;
  return config;
}

TEST(ControlPlaneChurn, NoProbeOnAnAlreadyRevokedPath) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", storm_config());
  scion::ControlPlane& control_plane = host.control_plane();
  ASSERT_FALSE(control_plane.revocations().events().empty())
      << "the storm must emit revocations or the property is vacuous";

  std::size_t probes = 0;
  std::size_t revoked_rejections = 0;
  for (int step = 0; step < 240; ++step) {
    // Rotate destinations so several (src, dst) pairs churn in the cache.
    const scion::SnetAddress& dst = env.servers[(step % 3 == 0)   ? 2
                                                : (step % 3 == 1) ? 4
                                                                  : 9];
    const SimTime before = host.clock().now();
    apps::PingOptions options;
    options.count = 5;
    const util::Result<apps::PingReport> report = host.ping(dst, options);
    if (report.ok()) {
      ++probes;
      // THE invariant: the path that carried this probe had no delivered,
      // unexpired revocation when the probe was dispatched.
      EXPECT_FALSE(control_plane.path_revoked(report.value().path, before))
          << "step " << step << ": probed a revoked path "
          << report.value().path.to_string();
    } else if (report.error().code == util::ErrorCode::kRevoked) {
      ++revoked_rejections;
    }
    host.clock().advance(util::sim_seconds(30.0));
  }
  EXPECT_GT(probes, 0u);
  EXPECT_GT(revoked_rejections + probes, 200u)
      << "revocations must not wedge the host into permanent failure";
}

TEST(ControlPlaneChurn, FailoverPicksPolicyConformantAlternative) {
  const scion::ScionlabEnv env = scion::scionlab_topology();

  // Measure on a calm network so the selector has clean samples...
  docdb::Database db;
  {
    simnet::NetworkConfig calm;
    calm.server_error_prob = 0.0;
    apps::ScionHost calm_host(env, 42, env.user_as, "10.0.8.1", calm);
    measure::TestSuiteConfig config;
    config.iterations = 3;
    config.server_ids = {{3}};
    measure::TestSuite suite(calm_host, db, config);
    ASSERT_TRUE(suite.run().ok());
  }

  // ...then drive intents on a host living inside the flap storm.  Flaps
  // only (no server-down): a probe on a flapped-but-unrevoked path loses
  // packets yet completes, so the only hard failure left is kRevoked.
  simnet::NetworkConfig net = storm_config();
  net.faults.server_down_per_hour = 0.0;
  apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
  scion::ControlPlane& control_plane = host.control_plane();

  select::PathSelector selector(db, env.topology);
  selector.attach_liveness(&control_plane, &host.clock());
  upinfw::PathController controller(host, selector);

  select::UserRequest request;
  request.server_id = 3;
  request.objective = select::Objective::kLowestLatency;
  const auto applied = controller.apply(request);
  ASSERT_TRUE(applied.ok());
  const std::string pinned_id = applied.value().chosen.summary.path_id;
  const auto pinned =
      scion::Path::parse_sequence(applied.value().chosen.summary.sequence);
  ASSERT_TRUE(pinned.ok());

  // Advance to an instant where the pinned path is revoked but at least
  // one other discovered path to the destination is live.
  const auto selection = selector.select(request);
  ASSERT_TRUE(selection.ok());
  bool found = false;
  for (int step = 0; step < 24 * 3600 / 5 && !found; ++step) {
    host.clock().advance(util::sim_seconds(5.0));
    const SimTime now = host.clock().now();
    if (!control_plane.path_revoked(pinned.value(), now)) continue;
    found = std::any_of(
        selection.value().ranked.begin(), selection.value().ranked.end(),
        [&](const select::RankedPath& candidate) {
          return candidate.summary.path_id != pinned_id &&
                 !control_plane.hops_revoked(candidate.summary.hops, now);
        });
  }
  ASSERT_TRUE(found) << "storm never revoked the pinned path with a live "
                        "alternative available";

  apps::PingOptions options;
  options.count = 5;
  const auto report = controller.ping(3, options);
  ASSERT_TRUE(report.ok())
      << "failover must absorb the revocation: " << report.error().message;
  EXPECT_EQ(controller.failovers(), 1u);
  const auto active = controller.active(3);
  ASSERT_TRUE(active.has_value());
  EXPECT_NE(active->chosen.summary.path_id, pinned_id)
      << "the intent must be re-pinned onto the alternative";
  EXPECT_EQ(report.value().path.sequence(), active->chosen.summary.sequence);
}

TEST(ControlPlaneChurn, KillThenResumeIsBitIdenticalUnderStorm) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  simnet::NetworkConfig net = storm_config();
  net.faults.garble_prob = 0.1;  // exercise retry alongside revocations
  // A server-down window can revoke *every* path of a unit, yielding an
  // empty batch that neither counts toward the crash trigger nor stores
  // samples; keep those rare so the kill lands mid-campaign.
  net.faults.server_down_per_hour = 0.5;
  measure::TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{3, 5}};

  const auto stats_snapshot = [](docdb::Database& db) {
    std::map<std::string, std::string> snapshot;
    db.collection(measure::kPathsStats)
        .for_each([&](const docdb::Document& doc) {
          snapshot.emplace(
              std::string(docdb::document_id(doc).value_or("")), doc.dump());
        });
    return snapshot;
  };

  // Reference: the same campaign, never interrupted.
  std::map<std::string, std::string> reference;
  std::string reference_cache;
  {
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
    docdb::Database db;
    measure::TestSuite suite(host, db, config);
    ASSERT_TRUE(suite.run().ok());
    reference = stats_snapshot(db);
    reference_cache = host.control_plane().checkpoint().dump();
    ASSERT_FALSE(reference.empty());
  }

  const std::string journal = test_support::temp_path("churn_resume", ".jsonl");
  std::filesystem::remove(journal);

  // Crashed run: killed after the third committed batch.
  {
    auto opened = docdb::Database::open(journal);
    ASSERT_TRUE(opened.ok());
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
    measure::TestSuiteConfig crashing = config;
    crashing.crash_after_batches = 2;
    measure::TestSuite suite(host, *opened.value(), crashing);
    ASSERT_FALSE(suite.run().ok());
  }

  // Resume: fresh process, fresh host, fresh clock, fresh (empty) cache —
  // the checkpointed snapshots must rebuild the identical trajectory.
  {
    auto reopened = docdb::Database::open(journal);
    ASSERT_TRUE(reopened.ok());
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
    measure::TestSuiteConfig resuming = config;
    resuming.skip_collection = true;
    resuming.resume = true;
    measure::TestSuite suite(host, *reopened.value(), resuming);
    ASSERT_TRUE(suite.run().ok());
    EXPECT_GT(suite.progress().units_skipped, 0u);

    const std::map<std::string, std::string> resumed =
        stats_snapshot(*reopened.value());
    ASSERT_EQ(resumed.size(), reference.size());
    for (const auto& [id, json] : reference) {
      const auto it = resumed.find(id);
      ASSERT_NE(it, resumed.end()) << "missing document " << id;
      EXPECT_EQ(it->second, json) << "document " << id << " diverged";
    }
    EXPECT_EQ(host.control_plane().checkpoint().dump(), reference_cache)
        << "the resumed cache trajectory diverged from the uninterrupted run";
  }
  std::filesystem::remove(journal);
}

/// One step of a seeded control-plane workload: deliver revocations due
/// by `at`, then look up the user AS → `server` path set.
struct LookupStep {
  SimTime at{};
  std::size_t server = 0;
  bool annotated = false;  ///< annotated_paths, else live_paths
};

/// `steps` lookups at increasing instants from `from`.  Gaps reach past
/// the cache's TTL and grace windows; some are zero, so the live-reply
/// memo is exercised too.
std::vector<LookupStep> lookup_script(util::Rng& rng, SimTime from, int steps,
                                      std::size_t servers) {
  std::vector<LookupStep> script;
  SimTime at = from;
  for (int i = 0; i < steps; ++i) {
    if (rng.uniform() < 0.8) at += util::sim_seconds(rng.uniform(0.0, 420.0));
    script.push_back(
        {at,
         static_cast<std::size_t>(
             rng.uniform_int(0, static_cast<std::int64_t>(servers) - 1)),
         rng.uniform() < 0.5});
  }
  return script;
}

std::vector<scion::Path> run_step(scion::ControlPlane& control_plane,
                                  const scion::ScionlabEnv& env,
                                  const LookupStep& step) {
  control_plane.sync(step.at);
  const scion::IsdAsn server = env.servers[step.server].ia;
  return step.annotated
             ? control_plane.annotated_paths(env.user_as, server, step.at)
             : control_plane.live_paths(env.user_as, server, step.at);
}

/// The checkpoint format written before entries dropped their paths: the
/// same entries, each with its paths in full.  The paths are the
/// resolver's answer, as the cached ones were.
util::Value with_path_arrays(util::Value snapshot,
                             const scion::Beaconing& beaconing) {
  for (util::Value& entry : snapshot["entries"].as_array()) {
    const auto src = scion::IsdAsn::parse(entry["src"].as_string());
    const auto dst = scion::IsdAsn::parse(entry["dst"].as_string());
    EXPECT_TRUE(src.ok() && dst.ok());
    if (!src.ok() || !dst.ok()) continue;
    util::Value::Array paths;
    for (const scion::Path& path : beaconing.paths(src.value(), dst.value())) {
      paths.push_back(util::Value::object({
          {"sequence", path.sequence()},
          {"mtu", path.mtu()},
          {"static_latency_ns", path.static_latency().count()},
          {"created_at_ns", path.created_at().count()},
          {"expires_at_ns", path.expires_at().count()},
          {"status", path.status()},
      }));
    }
    entry["paths"] = util::Value(std::move(paths));
  }
  return snapshot;
}

TEST(ControlPlaneChurn, RestoredControlPlaneFollowsTheOriginalTrajectory) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  const simnet::NetworkConfig net = storm_config();
  util::Rng rng(2023);
  std::size_t dirty_entries = 0;
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    apps::ScionHost original(env, 42, env.user_as, "10.0.8.1", net);
    scion::ControlPlane& reference = original.control_plane();
    ASSERT_FALSE(reference.revocations().events().empty());

    // Warm the cache up to a random instant, then checkpoint it there.
    const std::vector<LookupStep> warm = lookup_script(
        rng, SimTime::zero(), 10 + static_cast<int>(rng.uniform_int(0, 50)),
        env.servers.size());
    for (const LookupStep& step : warm) (void)run_step(reference, env, step);
    const SimTime as_of = warm.back().at;
    reference.sync(as_of);
    const util::Result<util::Value> compact =
        util::Value::parse(reference.checkpoint().dump());
    ASSERT_TRUE(compact.ok());
    for (const util::Value& entry :
         compact.value().get("entries")->as_array()) {
      if (entry.get("dirty")->as_bool()) ++dirty_entries;
    }
    const util::Value older =
        with_path_arrays(compact.value(), original.beaconing());

    apps::ScionHost from_compact(env, 42, env.user_as, "10.0.8.1", net);
    apps::ScionHost from_older(env, 42, env.user_as, "10.0.8.1", net);
    ASSERT_TRUE(
        from_compact.control_plane().restore(compact.value(), as_of).ok());
    ASSERT_TRUE(from_older.control_plane().restore(older, as_of).ok());
    const std::string restored_state = compact.value().dump();
    EXPECT_EQ(from_compact.control_plane().checkpoint().dump(), restored_state);
    EXPECT_EQ(from_older.control_plane().checkpoint().dump(), restored_state);

    // Every later reply must match: sequence, MTU, latency, lifetime and
    // status are all part of Path equality.
    const std::vector<LookupStep> after =
        lookup_script(rng, as_of, 60, env.servers.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
      const std::vector<scion::Path> expected =
          run_step(reference, env, after[i]);
      EXPECT_TRUE(run_step(from_compact.control_plane(), env, after[i]) ==
                  expected)
          << "step " << i << ": the compact restore diverged";
      EXPECT_TRUE(run_step(from_older.control_plane(), env, after[i]) ==
                  expected)
          << "step " << i << ": the path-array restore diverged";
    }
    const std::string final_state = reference.checkpoint().dump();
    EXPECT_EQ(from_compact.control_plane().checkpoint().dump(), final_state);
    EXPECT_EQ(from_older.control_plane().checkpoint().dump(), final_state);
  }
  EXPECT_GT(dirty_entries, 0u)
      << "no checkpoint held a revocation-dirtied entry";
}

TEST(ControlPlaneChurn, CacheServedPathsEqualRecombination) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", storm_config());
  scion::ControlPlane& control_plane = host.control_plane();

  // Instants within the first three hours of the storm: seeded random
  // ones, a dozen inside destination server-down windows (their paths
  // read "revoked") and one inside every server-down window of the user
  // AS itself (beaconing unavailable, the cache serves stale).
  const SimTime horizon = util::sim_seconds(3.0 * 3600.0);
  util::Rng rng(1107);
  std::vector<SimTime> instants;
  for (int i = 0; i < 24; ++i) {
    instants.push_back(util::sim_seconds(rng.uniform(0.0, 3.0 * 3600.0)));
  }
  std::vector<SimTime> dark;
  for (const scion::Revocation& event : control_plane.revocations().events()) {
    if (event.kind == scion::Revocation::Kind::kServerDown &&
        event.delivered_at < std::min(event.fault_end, horizon)) {
      dark.push_back(event.delivered_at +
                     (event.fault_end - event.delivered_at) / 2);
    }
  }
  const std::size_t stride = std::max<std::size_t>(1, dark.size() / 12);
  for (std::size_t i = 0; i < dark.size(); i += stride) {
    instants.push_back(dark[i]);
  }
  const auto route = host.route_of(
      host.beaconing().paths(env.user_as, env.servers.front().ia).front());
  ASSERT_TRUE(route.ok());
  for (const simnet::FaultWindow& window :
       host.network().faults().server_down_windows(route.value().front())) {
    if (window.start < horizon) {
      instants.push_back(window.start + (window.end - window.start) / 2);
    }
  }
  std::sort(instants.begin(), instants.end());

  std::size_t revoked_seen = 0;
  std::size_t degraded_instants = 0;
  for (const SimTime now : instants) {
    control_plane.sync(now);
    if (!control_plane.beaconing_available(now)) ++degraded_instants;
    for (const scion::SnetAddress& server : env.servers) {
      std::vector<scion::Path> served =
          control_plane.annotated_paths(env.user_as, server.ia, now);
      for (scion::Path& path : served) {
        if (path.status() == "revoked") ++revoked_seen;
        path.set_status(scion::Path().status());
      }
      EXPECT_TRUE(served == host.beaconing().paths(env.user_as, server.ia))
          << "cache diverged from recombination for " << server.ia.to_string()
          << " at " << util::to_seconds(now) << " s";
    }
  }
  EXPECT_GT(revoked_seen, 0u) << "no instant fell inside a revocation";
  EXPECT_GT(degraded_instants, 0u)
      << "no instant fell inside a user-AS server-down window";
}

/// The reduction probe dispatch made of `annotated_paths` before `pick`
/// existed: the first path with the AS chain `ases` (an error if that one
/// is revoked), or for an empty chain the first unrevoked path.
util::Result<scion::Path> reduce_annotated(
    const std::vector<scion::Path>& paths,
    const std::vector<scion::IsdAsn>& ases) {
  using util::ErrorCode;
  if (paths.empty()) return util::Error{ErrorCode::kUnreachable, "no path"};
  if (ases.empty()) {
    for (const scion::Path& candidate : paths) {
      if (candidate.status() != "revoked") return candidate;
    }
    return util::Error{ErrorCode::kRevoked, "all paths revoked"};
  }
  for (const scion::Path& candidate : paths) {
    if (candidate.hops().size() != ases.size()) continue;
    bool same = true;
    for (std::size_t i = 0; i < ases.size(); ++i) {
      same = same && candidate.hops()[i].ia == ases[i];
    }
    if (!same) continue;
    if (candidate.status() == "revoked") {
      return util::Error{ErrorCode::kRevoked, "path revoked"};
    }
    return candidate;
  }
  return util::Error{ErrorCode::kNotFound, "no match"};
}

/// The same error rules applied to a `pick`.
util::Result<scion::Path> reduce_pick(const scion::PathPick& pick) {
  using util::ErrorCode;
  if (!pick.any) return util::Error{ErrorCode::kUnreachable, "no path"};
  if (!pick.path.has_value()) {
    return util::Error{ErrorCode::kNotFound, "no match"};
  }
  if (pick.path->status() == "revoked") {
    return util::Error{ErrorCode::kRevoked, "revoked"};
  }
  return *pick.path;
}

std::vector<scion::IsdAsn> chain_of(const scion::Path& path) {
  std::vector<scion::IsdAsn> ases;
  for (const scion::PathHop& hop : path.hops()) ases.push_back(hop.ia);
  return ases;
}

/// Twin hosts (same seed, same storm) at instants that cover server-down
/// windows, link flaps, TTL expiry, the stale-while-revalidate window, the
/// user AS's own server-down windows (beaconing unavailable), the segment
/// lifetime running out, and an unknown destination (negative entries).
/// At each one the reference twin answers through `annotated_paths` and
/// the other through `pick`, asked for a served, a revoked, a foreign or
/// an empty chain.  Returns how often each outcome occurred.
std::map<std::string, std::size_t> run_pick_twins(apps::HostConfig config) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost reference_host(env, 42, env.user_as, "10.0.8.1",
                                 storm_config(), config);
  apps::ScionHost pick_host(env, 42, env.user_as, "10.0.8.1", storm_config(),
                            config);
  scion::ControlPlane& reference = reference_host.control_plane();
  scion::ControlPlane& picker = pick_host.control_plane();
  const scion::Beaconing& beaconing = reference_host.beaconing();

  // Seeded instants over the first eight hours (past the six-hour segment
  // lifetime), the middle of every revocation (link flaps and dark
  // servers) and of every user-AS server-down window in that span, and a
  // follow-up 330 s after a third of them: inside the grace window of
  // pairs resolved at the first.
  const SimTime horizon = util::sim_seconds(8.0 * 3600.0);
  util::Rng rng(1108);
  std::vector<SimTime> instants;
  for (int i = 0; i < 60; ++i) {
    instants.push_back(util::sim_seconds(rng.uniform(0.0, 8.0 * 3600.0)));
  }
  std::vector<SimTime> revoked;
  for (const scion::Revocation& event : reference.revocations().events()) {
    if (event.delivered_at < std::min(event.fault_end, horizon)) {
      revoked.push_back(event.delivered_at +
                        (event.fault_end - event.delivered_at) / 2);
    }
  }
  const std::size_t stride = std::max<std::size_t>(1, revoked.size() / 60);
  for (std::size_t i = 0; i < revoked.size(); i += stride) {
    instants.push_back(revoked[i]);
  }
  const auto route = reference_host.route_of(
      beaconing.paths(env.user_as, env.servers.front().ia).front());
  EXPECT_TRUE(route.ok());
  if (route.ok()) {
    for (const simnet::FaultWindow& window :
         reference_host.network().faults().server_down_windows(
             route.value().front())) {
      if (window.start < horizon) {
        instants.push_back(window.start + (window.end - window.start) / 2);
      }
    }
  }
  for (std::size_t i = 0, n = instants.size(); i < n; i += 3) {
    instants.push_back(instants[i] + util::sim_seconds(330.0));
  }
  std::sort(instants.begin(), instants.end());

  const scion::IsdAsn unknown{99, 1};
  std::map<std::string, std::size_t> seen;
  for (const SimTime now : instants) {
    reference.sync(now);
    picker.sync(now);
    if (!picker.beaconing_available(now)) ++seen["beaconing down"];
    for (int ask = 0; ask < 4; ++ask) {
      const bool to_unknown = rng.uniform() < 0.1;
      const scion::IsdAsn dst =
          to_unknown ? unknown
                     : env.servers[static_cast<std::size_t>(rng.uniform_int(
                                       0, static_cast<std::int64_t>(
                                              env.servers.size()) -
                                              1))]
                           .ia;
      // The chain asked for: one the destination's paths have (a revoked
      // one when there is one, half the time), one of another destination,
      // or none.
      const std::vector<scion::Path> discovered =
          beaconing.paths(env.user_as, dst);
      std::vector<scion::IsdAsn> ases;
      const double kind = rng.uniform();
      if (kind < 0.6 && !discovered.empty()) {
        const scion::Path* wanted = &discovered[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(discovered.size()) -
                                   1))];
        if (rng.uniform() < 0.5) {
          for (const scion::Path& path : discovered) {
            if (reference.path_revoked(path, now)) {
              wanted = &path;
              break;
            }
          }
        }
        ases = chain_of(*wanted);
      } else if (kind < 0.8) {
        ases = chain_of(
            beaconing.paths(env.user_as, env.servers[0].ia == dst
                                             ? env.servers[1].ia
                                             : env.servers[0].ia)
                .front());
      }

      const util::Result<scion::Path> expected = reduce_annotated(
          reference.annotated_paths(env.user_as, dst, now), ases);
      const util::Result<scion::Path> actual =
          reduce_pick(picker.pick(env.user_as, dst, ases, now));
      const std::string where = "at " + std::to_string(util::to_seconds(now)) +
                                " s to " + dst.to_string();
      EXPECT_EQ(actual.ok(), expected.ok()) << where;
      if (actual.ok() != expected.ok()) continue;
      if (expected.ok()) {
        EXPECT_TRUE(actual.value() == expected.value())
            << where << ": picked " << actual.value().sequence() << " ("
            << actual.value().status() << "), expected "
            << expected.value().sequence() << " ("
            << expected.value().status() << ")";
        ++seen[expected.value().status()];
      } else {
        EXPECT_EQ(actual.error().code, expected.error().code) << where;
        ++seen[std::string(ases.empty() ? "no chain, " : "") +
               util::to_string(expected.error().code)];
      }
      const scion::PathCache::Stats& a = reference.cache().stats();
      const scion::PathCache::Stats& b = picker.cache().stats();
      EXPECT_EQ(b.hits, a.hits) << where;
      EXPECT_EQ(b.misses, a.misses) << where;
      EXPECT_EQ(b.stale_served, a.stale_served) << where;
      EXPECT_EQ(b.evictions, a.evictions) << where;
      EXPECT_EQ(b.negative_hits, a.negative_hits) << where;
      EXPECT_EQ(b.invalidations, a.invalidations) << where;
      EXPECT_EQ(picker.checkpoint().dump(), reference.checkpoint().dump())
          << where;
    }
  }
  const scion::PathCache::Stats& stats = reference.cache().stats();
  if (stats.stale_served > 0) ++seen["cache stale"];
  if (stats.negative_hits > 0) ++seen["negative hit"];
  return seen;
}

TEST(ControlPlaneChurn, PickEqualsAnnotatedReduction) {
  const std::map<std::string, std::size_t> cached =
      run_pick_twins(apps::HostConfig{});
  for (const char* outcome :
       {"alive", "stale", "revoked", "no chain, revoked", "not_found",
        "unreachable", "no chain, unreachable", "beaconing down",
        "cache stale", "negative hit"}) {
    EXPECT_GT(cached.count(outcome), 0u) << "never reached: " << outcome;
  }

  apps::HostConfig bypass;
  bypass.control_plane.cache.enabled = false;
  const std::map<std::string, std::size_t> uncached = run_pick_twins(bypass);
  for (const char* outcome : {"alive", "stale", "revoked", "not_found"}) {
    EXPECT_GT(uncached.count(outcome), 0u) << "never reached: " << outcome;
  }
}

}  // namespace
}  // namespace upin
