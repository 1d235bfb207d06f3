// fleet_chaos — the multi-tenant isolation harness as a standalone
// drill: N campaigns multiplexed over one process, chaos injected into
// exactly one of them, blast radius measured.
//
// Campaign 0 is the sacrificial tenant: garbled frames, dark-server and
// slow-responder windows, plus hard bandwidth-probe failures.  Every
// other campaign runs clean against its own destinations.  After the
// fleet completes, each clean campaign is re-run SOLO with the same
// split seed, and its fleet shard is compared byte-for-byte against the
// solo shard — the blast-radius-zero contract from
// tests/integration/fleet_isolation_test.cpp, scaled to a whole fleet.
//
// Usage:
//   fleet_chaos                          6-campaign drill, text table
//   fleet_chaos --campaigns N            fleet width (>= 2)
//   fleet_chaos --iterations N           units per destination (default 2)
//   fleet_chaos --error-budget N         quarantine threshold (default 8)
//   fleet_chaos --watchdog-deadline-ms N per-unit virtual deadline
//                                        (default 900000; 0 = off)
//   fleet_chaos --shed 0|1               load-shedding policy (default 1:
//                                        degraded tenants go ping-only)
//   fleet_chaos --threads N              worker threads (default 0 = auto)
//   fleet_chaos --seed N                 fleet seed (default 42)
//   fleet_chaos --out FILE               JSON report (BENCH_fleet.json)
//   fleet_chaos --gate                   exit 1 unless the chaos tenant is
//                                        contained AND every clean tenant
//                                        is byte-identical to its solo run
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "util/json.hpp"

namespace {

using namespace upin;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

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

}  // namespace

int main(int argc, char** argv) {
  std::size_t campaigns = 6;
  int iterations = 2;
  std::size_t error_budget = 8;
  double watchdog_deadline_ms = 900000.0;
  bool shed = true;
  std::size_t threads = 0;
  std::uint64_t seed = 42;
  std::string out_path = "BENCH_fleet.json";
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--campaigns") == 0) {
      campaigns = std::max(2ul, std::stoul(next()));
    } else if (std::strcmp(argv[i], "--iterations") == 0) {
      iterations = std::max(1, std::stoi(next()));
    } else if (std::strcmp(argv[i], "--error-budget") == 0) {
      error_budget = std::stoul(next());
    } else if (std::strcmp(argv[i], "--watchdog-deadline-ms") == 0) {
      watchdog_deadline_ms = std::stod(next());
    } else if (std::strcmp(argv[i], "--shed") == 0) {
      shed = std::stoi(next()) != 0;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::stoul(next());
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::stoull(next());
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next();
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const scion::ScionlabEnv env = scion::scionlab_topology();
  fleet::FleetConfig config;
  config.seed = seed;
  config.threads = threads;
  config.error_budget = error_budget;
  config.watchdog_deadline_s = watchdog_deadline_ms / 1000.0;
  config.shed_enabled = shed;
  config.net_config.server_error_prob = 0.0;
  config.suite.iterations = iterations;
  config.suite.retry.max_attempts = 2;

  // Distinct destination per campaign, cycling the 21-server testbed.
  std::vector<fleet::CampaignSpec> specs(campaigns);
  for (std::size_t i = 0; i < campaigns; ++i) {
    specs[i].campaign_id = static_cast<int>(i);
    specs[i].server_ids = {static_cast<int>(1 + (2 + 2 * i) % 21)};
  }
  specs[0].net_config = chaos_network();
  specs[0].priority = 0;  // the chaos tenant is also lowest priority

  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("fleet_chaos_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(base);

  fleet::FleetConfig fleet_config = config;
  fleet_config.data_dir = base + "/fleet";
  const auto result = fleet::FleetScheduler(env, fleet_config).run(specs);
  if (!result.ok()) {
    std::fprintf(stderr, "fleet run failed: %s\n",
                 result.error().message.c_str());
    return 1;
  }

  // Solo replays of every clean tenant: the isolation oracle.
  std::filesystem::create_directories(base + "/solo");
  bool isolation_ok = true;
  std::vector<bool> tenant_ok(campaigns, true);
  for (std::size_t i = 1; i < campaigns; ++i) {
    const std::string solo_shard =
        base + "/solo/" + fleet::shard_filename(specs[i].campaign_id);
    const auto solo = fleet::run_campaign_solo(env, config, specs[i], solo_shard);
    const std::string fleet_shard =
        fleet_config.data_dir + "/" + fleet::shard_filename(specs[i].campaign_id);
    const bool ok = solo.ok() &&
                    result.value().campaigns[i].state ==
                        fleet::TenantState::kHealthy &&
                    read_file(fleet_shard) == read_file(solo_shard) &&
                    !read_file(solo_shard).empty();
    tenant_ok[i] = ok;
    isolation_ok = isolation_ok && ok;
  }
  const bool chaos_contained =
      result.value().campaigns[0].state != fleet::TenantState::kHealthy;

  std::printf("fleet_chaos: %zu campaigns, chaos on campaign 0, seed %llu\n",
              campaigns, static_cast<unsigned long long>(seed));
  std::printf("%-4s %-12s %6s %6s %6s %6s %9s  %s\n", "id", "state",
              "units", "score", "shed", "wdog", "resumed", "isolation");
  for (std::size_t i = 0; i < campaigns; ++i) {
    const fleet::CampaignStatus& s = result.value().campaigns[i];
    std::printf("%-4d %-12s %6zu %6zu %6zu %6zu %9zu  %s\n",
                s.campaign_id, std::string(fleet::to_string(s.state)).c_str(),
                s.units_run, s.error_score, s.progress.probes_shed,
                s.watchdog_trips, s.units_resumed,
                i == 0 ? (chaos_contained ? "contained" : "ESCAPED")
                       : (tenant_ok[i] ? "bit-exact" : "DIVERGED"));
  }
  std::printf("wall %.2f s, isolation %s\n", result.value().wall_seconds,
              isolation_ok ? "OK" : "BROKEN");

  util::JsonObject report;
  report.set("campaigns", util::Value(static_cast<double>(campaigns)));
  report.set("error_budget", util::Value(static_cast<double>(error_budget)));
  report.set("shed_enabled", util::Value(shed));
  report.set("chaos_contained", util::Value(chaos_contained));
  report.set("isolation_ok", util::Value(isolation_ok));
  report.set("wall_seconds", util::Value(result.value().wall_seconds));
  util::Value::Array tenants;
  for (const fleet::CampaignStatus& s : result.value().campaigns) {
    util::JsonObject tenant;
    tenant.set("campaign_id", util::Value(s.campaign_id));
    tenant.set("state", util::Value(std::string(fleet::to_string(s.state))));
    tenant.set("units_run", util::Value(static_cast<double>(s.units_run)));
    tenant.set("error_score", util::Value(static_cast<double>(s.error_score)));
    tenant.set("probes_shed",
               util::Value(static_cast<double>(s.progress.probes_shed)));
    tenant.set("watchdog_trips",
               util::Value(static_cast<double>(s.watchdog_trips)));
    tenants.push_back(util::Value(std::move(tenant)));
  }
  report.set("tenants", util::Value(std::move(tenants)));
  std::ofstream(out_path) << util::Value(std::move(report)).dump() << "\n";

  std::filesystem::remove_all(base);
  if (gate && (!isolation_ok || !chaos_contained)) {
    std::fprintf(stderr, "GATE FAILED: %s\n",
                 !chaos_contained ? "chaos tenant escaped containment"
                                  : "clean tenant diverged from solo run");
    return 1;
  }
  return 0;
}
