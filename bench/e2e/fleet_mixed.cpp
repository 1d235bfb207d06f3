// fleet_mixed.cpp — concurrent campaigns: rounds of 8 tenants on 3
// workers (FleetScheduler::run), durable shards through the counting
// VFS, each tenant owning two destinations that cycle through the
// 21-server testbed.  Tenant 0 is a chaos tenant at priority 0 with the
// fault plan of bench/fleet_chaos, so the retry, breaker and degradation
// paths run in every round.  The client submits a round and waits for
// it (closed loop); one round is one timed operation.
//
// The scheduler sets its tenants up inside run(), where that cannot be
// timed apart from their units, so setup_s times the same set-up done
// outside it: the round's testbed, then for each tenant the shard opened
// through the counting VFS, its host on the split seed and network, its
// suite, begin().
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "apps/host.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "measure/schema.hpp"
#include "obs/metrics.hpp"
#include "scion/scionlab.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace upin::e2e {
namespace {

constexpr int kTenants = 8;
/// One timed set-up (setup_s) before every kRoundsPerSetup-th round:
/// ~10 per run.
constexpr std::size_t kRoundsPerSetup = 10;

simnet::NetworkConfig chaos_network() {
  simnet::NetworkConfig config;
  config.server_error_prob = 1.0;
  simnet::FaultPlanConfig faults;
  faults.garble_prob = 0.35;
  faults.server_down_per_hour = 8.0;
  faults.slow_per_hour = 8.0;
  config.faults = faults;
  return config;
}

fleet::FleetConfig fleet_config(const Options& options, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.seed = seed;
  // Three workers, not four: on a 4-vCPU guest of a shared host, a round
  // that keeps every vCPU busy stalls whenever the host takes one away
  // (README: "Host speed").
  config.threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 3);
  config.net_config.server_error_prob = 0.0;
  config.suite.iterations = options.smoke ? 1 : 5;
  config.suite.retry.max_attempts = 2;
  return config;
}

/// Tenant i measures servers offset+2i and offset+2i+1 (mod 21).
std::vector<fleet::CampaignSpec> fleet_specs(std::size_t offset,
                                             docdb::Vfs* vfs) {
  std::vector<fleet::CampaignSpec> specs(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    const std::size_t first = offset + 2 * static_cast<std::size_t>(i);
    specs[static_cast<std::size_t>(i)].campaign_id = i;
    specs[static_cast<std::size_t>(i)].server_ids = {
        static_cast<int>(1 + first % 21),
        static_cast<int>(1 + (first + 1) % 21)};
    specs[static_cast<std::size_t>(i)].storage.vfs = vfs;
  }
  specs[0].net_config = chaos_network();
  specs[0].priority = 0;
  return specs;
}

/// Time setting up round `index`'s tenants as the scheduler does, one
/// after the other (see the file comment).  Untimed: tearing the tenants
/// down and removing their shards.
void time_tenant_setup(const Options& options, std::size_t offset,
                       std::size_t index, docdb::Vfs* vfs, Report& report) {
  struct World {
    obs::Registry registry;
    std::unique_ptr<docdb::Database> db;
    std::unique_ptr<apps::ScionHost> host;
    std::unique_ptr<measure::TestSuite> suite;
  };
  const std::string dir =
      options.data_dir + "/setup_" + std::to_string(index);
  std::filesystem::create_directories(dir);
  std::vector<std::unique_ptr<World>> worlds;

  const std::int64_t cpu = thread_cpu_ns();
  const std::int64_t start = now_ns();
  const scion::ScionlabEnv env = scion::scionlab_topology();
  const fleet::FleetConfig config =
      fleet_config(options, derive_seed(options.seed, index + 1));
  for (const fleet::CampaignSpec& spec : fleet_specs(offset + index, vfs)) {
    auto world = std::make_unique<World>();
    auto opened = docdb::Database::open(
        dir + "/" + fleet::shard_filename(spec.campaign_id), spec.storage);
    if (!opened.ok()) {
      report.check(false, "set-up shard: " + opened.error().message);
      break;
    }
    world->db = std::move(opened).value();
    world->host = std::make_unique<apps::ScionHost>(
        env, fleet::campaign_seed(config.seed, spec.campaign_id), env.user_as,
        "10.0.8.1", spec.net_config.value_or(config.net_config));
    measure::TestSuiteConfig suite = config.suite;
    suite.server_ids = spec.server_ids;
    suite.registry = &world->registry;
    world->suite =
        std::make_unique<measure::TestSuite>(*world->host, *world->db, suite);
    const util::Status begun = world->suite->begin();
    report.check(begun.ok(), "set-up begin failed");
    worlds.push_back(std::move(world));
  }
  report.setup(start, now_ns(), thread_cpu_ns() - cpu);

  worlds.clear();
  std::filesystem::remove_all(dir);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Totals over the timed rounds (per round in the per-layer metrics).
struct FleetTotals {
  double units = 0.0;
  double backpressure = 0.0;
  double watchdog = 0.0;
  double shed = 0.0;
  double degraded = 0.0;
  double quarantined = 0.0;
  double failed = 0.0;
  double user_bytes = 0.0;
  std::vector<double> reopen_ms;
  OpTally tally;
  Counters delta;
};

/// The output checks of one round: containment of the chaos tenant,
/// health of the others, and every shard reopening to the documents its
/// tenant reported.
void check_round(Report& report, const fleet::FleetResult& result,
                 FleetTotals& totals) {
  report.check(result.campaigns.size() == kTenants, "fleet lost tenants");
  for (const fleet::CampaignStatus& status : result.campaigns) {
    const bool chaos = status.campaign_id == 0;
    report.check(chaos ? status.state != fleet::TenantState::kHealthy
                       : status.state == fleet::TenantState::kHealthy,
                 util::format(
                     "tenant %d ended %s", status.campaign_id,
                     std::string(fleet::to_string(status.state)).c_str()));
    const std::int64_t start = now_ns();
    const auto shard = docdb::Database::open(status.shard_path);
    totals.reopen_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    if (!shard.ok()) {
      report.check(false, "reopen " + status.shard_path + ": " +
                              shard.error().message);
      continue;
    }
    const StatsDigest digest = stats_digest(*shard.value());
    totals.user_bytes += static_cast<double>(digest.bytes);
    report.check(digest.docs == status.progress.stats_inserted,
                 util::format(
                     "tenant %d shard holds %zu stats docs, reported %zu",
                     status.campaign_id, digest.docs,
                     status.progress.stats_inserted));
    report.check(sample_count_spread(*shard.value()) <=
                     status.progress.ping_failures +
                         status.progress.breaker_skips,
                 util::format("tenant %d: unbalanced batches",
                              status.campaign_id));
  }
}

}  // namespace

Report run_fleet_mixed(const Options& options) {
  Report report;
  CountingVfs vfs;
  FleetTotals totals;
  const std::size_t offset = derive_seed(options.seed, 0) % 21;
  std::size_t rounds = 0;
  bool solo_checked = false;

  const auto round = [&](std::size_t index, bool timed) {
    const scion::ScionlabEnv env = scion::scionlab_topology();
    fleet::FleetConfig config =
        fleet_config(options, derive_seed(options.seed, index + 1));
    const std::vector<fleet::CampaignSpec> specs =
        fleet_specs(offset + index, &vfs);
    config.data_dir = options.data_dir + "/round_" + std::to_string(index);

    const Counters before = Counters::read(&vfs);
    const std::int64_t cpu = process_cpu_ns();
    const std::int64_t start = now_ns();
    const util::Result<fleet::FleetResult> result =
        fleet::FleetScheduler(env, config).run(specs);
    const std::int64_t end = now_ns();
    const std::int64_t cpu_used = process_cpu_ns() - cpu;
    if (timed) {
      ++report.attempted;
      totals.delta += Counters::read(&vfs) - before;
    }
    if (!result.ok()) {
      if (timed) ++report.failed;
      report.check(false, "fleet run: " + result.error().message);
      return;
    }
    check_round(report, result.value(), totals);
    if (!solo_checked) {
      // Blast radius zero, checked untimed once per run: a clean
      // tenant's shard equals its solo run byte for byte.
      solo_checked = true;
      fleet::CampaignSpec solo_spec = specs[1];
      solo_spec.storage = {};
      fleet::FleetConfig solo_config = config;
      solo_config.data_dir.clear();
      const std::string solo_shard = options.data_dir + "/solo.jsonl";
      const auto solo =
          fleet::run_campaign_solo(env, solo_config, solo_spec, solo_shard);
      const std::string solo_bytes = read_file(solo_shard);
      const std::string& fleet_shard = result.value().campaigns[1].shard_path;
      report.check(solo.ok() && !solo_bytes.empty() &&
                       solo_bytes == read_file(fleet_shard),
                   "tenant 1 shard differs from its solo run");
      std::filesystem::remove(solo_shard);
    }
    std::filesystem::remove_all(config.data_dir);
    if (!timed) return;
    ++rounds;
    double docs = 0.0;
    for (const fleet::CampaignStatus& status : result.value().campaigns) {
      docs += static_cast<double>(status.progress.stats_inserted);
      totals.units += static_cast<double>(status.units_run);
      totals.backpressure +=
          static_cast<double>(status.backpressure_rejections);
      totals.watchdog += static_cast<double>(status.watchdog_trips);
      totals.shed += static_cast<double>(status.progress.probes_shed);
      totals.tally.add(status.progress);
    }
    totals.degraded += static_cast<double>(result.value().degraded);
    totals.quarantined += static_cast<double>(result.value().quarantined);
    totals.failed += static_cast<double>(result.value().failed);
    // The round's work runs on the scheduler's workers; the process CPU
    // time over their wall time is the share they spent on a CPU.
    report.op(start, end, cpu_used, docs, static_cast<int>(config.threads));
    report.probe.tick();
  };

  report.probe.enable_io(options.data_dir);
  round(0, false);  // warm-up
  totals.reopen_ms.clear();
  totals.user_bytes = 0.0;
  report.probe.sample();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::size_t index = 1;
  std::size_t setups = 0;
  do {
    // Set-ups between rounds sample the host across the whole run.
    if ((index - 1) % kRoundsPerSetup == 0) {
      time_tenant_setup(options, offset, ++setups, &vfs, report);
    }
    round(index++, true);
  } while (now_ns() < deadline);

  report.notes.push_back(util::format("fleet rounds: %zu", rounds));
  report.notes.push_back("shard filesystem: " +
                         filesystem_type(options.data_dir));
  if (options.trace && rounds > 0) {
    const double n = static_cast<double>(rounds);
    auto& layer = report.layer;
    layer["fleet.units"] = totals.units / n;
    layer["fleet.backpressure_rejections"] = totals.backpressure / n;
    layer["fleet.watchdog_trips"] = totals.watchdog / n;
    layer["fleet.probes_shed"] = totals.shed / n;
    layer["fleet.tenants_degraded"] = totals.degraded / n;
    layer["fleet.tenants_quarantined"] = totals.quarantined / n;
    layer["fleet.tenants_failed"] = totals.failed / n;
    layer["measure.failed_share"] = totals.tally.share();
    if (!totals.reopen_ms.empty()) {
      layer["docdb.replay_ms"] = util::mean(totals.reopen_ms);
    }
    double docs = 0.0;
    for (const Op& op : report.ops) docs += op.docs;
    add_counter_layers(report, totals.delta, n, docs, totals.user_bytes);
  }
  return report;
}

}  // namespace upin::e2e
