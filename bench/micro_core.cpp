// micro_core — performance-tracking microbenchmarks for the hot paths of
// the library (google-benchmark): JSON parse/serialize, filter matching,
// control-plane path combination, SCION address text (ISD-AS and
// hop-sequence formatting and parsing, the per-unit control-plane
// checkpoint and its restore), the selection read path (per-destination
// paths_stats summaries), probe dispatch (host ping / bwtestclient next
// to the bare network call on the same route) and a full
// single-destination campaign iteration.  Not a paper figure; a
// regression harness for contributors.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <optional>

#include "apps/host.hpp"
#include "docdb/filter.hpp"
#include "measure/schema.hpp"
#include "measure/testsuite.hpp"
#include "obs/metrics.hpp"
#include "scion/beacon.hpp"
#include "scion/scionlab.hpp"
#include "select/selector.hpp"

namespace {

using namespace upin;

const char* kStatsJson =
    R"({"_id":"2_15_000000012000","path_id":"2_15","server_id":2,)"
    R"("timestamp_ms":12000,"hop_count":6,"isds":[16,17],)"
    R"("latency_ms":41.52,"loss_pct":3.3,"jitter_ms":0.61,)"
    R"("bw":{"up_64":4.1,"down_64":11.2,"up_mtu":9.0,"down_mtu":11.7},)"
    R"("target_mbps":12.0})";

void BM_JsonParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Value::parse(kStatsJson));
  }
}

void BM_JsonDump(benchmark::State& state) {
  const util::Value doc = util::Value::parse(kStatsJson).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.dump());
  }
}

void BM_FilterCompile(benchmark::State& state) {
  const util::Value query = util::Value::parse(
      R"({"server_id": 2, "loss_pct": {"$lt": 10}, "isds": {"$nin": [20]}})")
      .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(docdb::Filter::compile(query));
  }
}

void BM_FilterMatch(benchmark::State& state) {
  const docdb::Filter filter =
      docdb::Filter::compile(
          util::Value::parse(
              R"({"server_id": 2, "loss_pct": {"$lt": 10}, "isds": 17})")
              .value())
          .value();
  const util::Value doc = util::Value::parse(kStatsJson).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.matches(doc));
  }
}

void BM_BeaconingConstruction(benchmark::State& state) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  for (auto _ : state) {
    scion::Beaconing beacons(env.topology);
    benchmark::DoNotOptimize(&beacons);
  }
}

void BM_PathCombination(benchmark::State& state) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  const scion::Beaconing beacons(env.topology);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        beacons.paths(env.user_as, scion::scionlab::kIreland));
  }
}

void BM_IsdAsnToString(benchmark::State& state) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  for (auto _ : state) {
    for (const scion::AsInfo& as : env.topology.ases()) {
      benchmark::DoNotOptimize(as.ia.to_string());
    }
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(env.topology.ases().size()));
}

/// Every path from the user AS to the five featured servers (§6).
std::vector<scion::Path> featured_paths(const scion::ScionlabEnv& env) {
  const scion::Beaconing beacons(env.topology);
  std::vector<scion::Path> paths;
  for (std::size_t id = 1; id <= 5; ++id) {
    const scion::IsdAsn server = env.servers[id - 1].ia;
    for (scion::Path& path : beacons.paths(env.user_as, server)) {
      paths.push_back(std::move(path));
    }
  }
  return paths;
}

void BM_PathSequence(benchmark::State& state) {
  const std::vector<scion::Path> paths =
      featured_paths(scion::scionlab_topology());
  for (auto _ : state) {
    for (const scion::Path& path : paths) {
      benchmark::DoNotOptimize(path.sequence());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths.size()));
}

void BM_ParseSequence(benchmark::State& state) {
  std::vector<std::string> sequences;
  for (const scion::Path& path : featured_paths(scion::scionlab_topology())) {
    sequences.push_back(path.sequence());
  }
  for (auto _ : state) {
    for (const std::string& sequence : sequences) {
      benchmark::DoNotOptimize(scion::Path::parse_sequence(sequence));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sequences.size()));
}

/// The control-plane snapshot the §6 survey (servers 1-5) records per
/// unit, taken after ten warm units.
/// A host after the §6 survey's first ten units on a fixed seed: the
/// warm cache both checkpoint benchmarks work from.
void run_ten_survey_units(apps::ScionHost& host) {
  docdb::Database db;
  obs::Registry registry;
  measure::TestSuiteConfig config;
  config.iterations = 55;
  config.server_ids = {{1, 2, 3, 4, 5}};
  config.registry = &registry;
  measure::TestSuite suite(host, db, config);
  if (!suite.begin().ok()) std::abort();
  for (int unit = 0; unit < 10; ++unit) {
    if (!suite.step().ok()) std::abort();
  }
}

void BM_ControlPlaneCheckpoint(benchmark::State& state) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost host(env, 1100, env.user_as, "10.0.8.1");
  run_ten_survey_units(host);
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.control_plane().checkpoint());
  }
  state.counters["bytes"] =
      static_cast<double>(host.control_plane().checkpoint().dump().size());
}

/// The resume side: restoring that checkpoint into a fresh host, whose
/// empty cache re-resolves every pair (host construction is untimed).
void BM_ControlPlaneRestoreCheckpoint(benchmark::State& state) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost host(env, 1100, env.user_as, "10.0.8.1");
  run_ten_survey_units(host);
  const util::Value checkpoint = host.control_plane().checkpoint();
  const util::SimTime as_of = host.clock().now();
  for (auto _ : state) {
    state.PauseTiming();
    auto fresh =
        std::make_unique<apps::ScionHost>(env, 1100, env.user_as, "10.0.8.1");
    state.ResumeTiming();
    if (!fresh->control_plane().restore(checkpoint, as_of).ok()) std::abort();
    state.PauseTiming();
    fresh.reset();
    state.ResumeTiming();
  }
}

void BM_PingMeasurement(benchmark::State& state) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost host(env, 42, env.user_as, "10.0.8.1");
  const scion::SnetAddress ireland{scion::scionlab::kIreland, "172.31.43.7"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.ping(ireland, {}));
  }
}

/// A host on a calm network and one stored path to Ireland (the middle
/// of its showpaths list), as a §5 campaign probes it by sequence.
struct ProbeTarget {
  ProbeTarget()
      : env(scion::scionlab_topology()),
        host(env, 42, env.user_as, "10.0.8.1", calm()),
        server{scion::scionlab::kIreland, "172.31.43.7"} {
    const std::vector<scion::Path> paths =
        host.beaconing().paths(env.user_as, server.ia);
    const scion::Path& path = paths[paths.size() / 2];
    sequence = path.sequence();
    route = host.route_of(path).value();
  }
  static simnet::NetworkConfig calm() {
    simnet::NetworkConfig config;
    config.server_error_prob = 0.0;
    return config;
  }
  scion::ScionlabEnv env;
  apps::ScionHost host;
  scion::SnetAddress server;
  std::string sequence;
  std::vector<simnet::NodeId> route;
};

/// `scion ping -c 30 --sequence S` through the host (path pick included),
/// or the bare Network::ping on the same route at the same instants: the
/// difference is the host's dispatch cost per probe.
void BM_HostPing(benchmark::State& state, bool through_host) {
  ProbeTarget target;
  apps::PingOptions options;
  options.sequence = target.sequence;
  const simnet::PingOptions network_options;
  util::VirtualClock& clock = target.host.clock();
  for (auto _ : state) {
    if (through_host) {
      benchmark::DoNotOptimize(target.host.ping(target.server, options));
    } else {
      benchmark::DoNotOptimize(target.host.network().ping(
          target.route, network_options, clock.now()));
      clock.advance(util::sim_seconds(3.0));
    }
  }
}

/// `scion-bwtestclient -cs 3,64,?,12Mbps --sequence S` through the host,
/// or the two bare Network::bwtest runs (both directions) it makes.
void BM_HostBwtestclient(benchmark::State& state, bool through_host) {
  ProbeTarget target;
  apps::BwtestOptions options;
  options.cs_spec = "3,64,?,12Mbps";
  options.sequence = target.sequence;
  simnet::BwtestOptions network_options;
  network_options.packet_bytes = 64.0;
  const std::vector<simnet::NodeId> reverse(target.route.rbegin(),
                                            target.route.rend());
  const std::array<const std::vector<simnet::NodeId>*, 2> routes = {
      &target.route, &reverse};
  util::VirtualClock& clock = target.host.clock();
  for (auto _ : state) {
    if (through_host) {
      benchmark::DoNotOptimize(
          target.host.bwtestclient(target.server, options));
    } else {
      for (const std::vector<simnet::NodeId>* route : routes) {
        benchmark::DoNotOptimize(
            target.host.network().bwtest(*route, network_options, clock.now()));
        clock.advance(util::sim_seconds(network_options.duration_s));
      }
    }
  }
}

void BM_CampaignIteration(benchmark::State& state) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  for (auto _ : state) {
    state.PauseTiming();
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1");
    docdb::Database db;
    measure::TestSuiteConfig config;
    config.iterations = 1;
    config.server_ids = {{3}};
    measure::TestSuite suite(host, db, config);
    state.ResumeTiming();
    if (!suite.run().ok()) std::abort();
  }
}

/// A select-mix-shaped database: every destination x 40 iterations
/// (~11 k paths_stats documents), built once on first use.
struct SelectPopulation {
  SelectPopulation()
      : env(scion::scionlab_topology()),
        host(env, 1001, env.user_as, "10.0.8.1") {
    measure::TestSuiteConfig config;
    config.iterations = 40;
    config.registry = &registry;
    config.checkpoints = false;
    config.metrics_snapshots = false;
    measure::TestSuite suite(host, db, config);
    if (!suite.run().ok()) std::abort();
    window_start_ms = static_cast<std::int64_t>(
        0.9 * static_cast<double>(host.clock().now().count()) / 1e6);
  }
  scion::ScionlabEnv env;
  apps::ScionHost host;
  obs::Registry registry;
  docdb::Database db;
  std::int64_t window_start_ms = 0;  ///< the last 10 % of the timeline
};

/// PathSelector::summarize for every destination: over the freshness
/// window select-mix uses for 75 % of its requests, or the full history.
void BM_SelectorSummarize(benchmark::State& state, bool windowed) {
  static const SelectPopulation population;
  const select::PathSelector selector(population.db, population.env.topology);
  const std::optional<std::int64_t> since =
      windowed ? std::optional<std::int64_t>(population.window_start_ms)
               : std::nullopt;
  const int servers = static_cast<int>(population.env.servers.size());
  std::size_t samples = 0;
  for (auto _ : state) {
    samples = 0;
    for (int server = 1; server <= servers; ++server) {
      auto summaries = selector.summarize(server, since);
      if (!summaries.ok()) std::abort();
      benchmark::DoNotOptimize(summaries);
      for (const select::PathSummary& summary : summaries.value()) {
        samples += summary.samples;
      }
    }
  }
  state.counters["samples"] = static_cast<double>(samples);
  state.counters["docs_per_s"] = benchmark::Counter(
      static_cast<double>(samples) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_JsonParse);
BENCHMARK(BM_JsonDump);
BENCHMARK(BM_FilterCompile);
BENCHMARK(BM_FilterMatch);
BENCHMARK(BM_BeaconingConstruction);
BENCHMARK(BM_PathCombination);
BENCHMARK(BM_IsdAsnToString);
BENCHMARK(BM_PathSequence);
BENCHMARK(BM_ParseSequence);
BENCHMARK(BM_ControlPlaneCheckpoint);
BENCHMARK(BM_ControlPlaneRestoreCheckpoint);
BENCHMARK(BM_PingMeasurement);
BENCHMARK_CAPTURE(BM_HostPing, host, true);
BENCHMARK_CAPTURE(BM_HostPing, network, false);
BENCHMARK_CAPTURE(BM_HostBwtestclient, host, true);
BENCHMARK_CAPTURE(BM_HostBwtestclient, network, false);
BENCHMARK(BM_CampaignIteration);
BENCHMARK_CAPTURE(BM_SelectorSummarize, windowed, true);
BENCHMARK_CAPTURE(BM_SelectorSummarize, full, false);

}  // namespace

BENCHMARK_MAIN();
