// ablation_parallel — scale-out throughput of the campaign engine
// (paper §4.1.1's scalability requirement, measured).
//
// Runs the full 21-destination survey as a fleet of in-memory tenants,
// one per destination, with increasing worker counts, reporting wall
// time and speedup.  Each tenant draws its own split seed, so the sample
// count is a pure function of the fleet seed: it must not change with
// the worker count.
#include <thread>

#include "common.hpp"
#include "fleet/fleet.hpp"

int main(int argc, char** argv) {
  using namespace upin;
  const bool csv = bench::want_csv(argc, argv);

  if (csv) {
    std::printf("threads,wall_s,speedup,samples\n");
  } else {
    bench::print_header(
        "Ablation — fleet scale-out (21 destinations, 4 iterations)",
        "one in-memory tenant per destination; fleet workers multiplex them");
    std::printf("hardware concurrency: %u (speedup is bounded by this)\n\n",
                std::thread::hardware_concurrency());
    std::printf("%-9s %-10s %-9s %s\n", "threads", "wall s", "speedup",
                "samples");
  }

  const scion::ScionlabEnv env = scion::scionlab_topology();
  std::vector<fleet::CampaignSpec> specs;
  for (std::size_t i = 0; i < env.servers.size(); ++i) {
    fleet::CampaignSpec spec;
    spec.campaign_id = static_cast<int>(i) + 1;
    spec.server_ids = {spec.campaign_id};
    specs.push_back(spec);
  }

  double baseline = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    fleet::FleetConfig config;
    config.suite.iterations = 4;
    config.threads = threads;
    config.error_budget = 0;
    config.watchdog_deadline_s = 0.0;
    const auto result = fleet::FleetScheduler(env, config).run(specs);
    if (!result.ok()) {
      std::fprintf(stderr, "fleet failed: %s\n",
                   result.error().message.c_str());
      return 1;
    }
    std::size_t samples = 0;
    for (const fleet::CampaignStatus& campaign : result.value().campaigns) {
      samples += campaign.progress.stats_inserted;
    }
    const double wall = result.value().wall_seconds;
    if (threads == 1) baseline = wall;
    const double speedup = baseline / wall;
    if (csv) {
      std::printf("%zu,%.3f,%.2f,%zu\n", threads, wall, speedup, samples);
    } else {
      std::printf("%-9zu %-10.3f %-9.2f %zu\n", threads, wall, speedup,
                  samples);
    }
  }
  return 0;
}
