// survey_scale — the §6 headline campaign at paper scale.
//
// The paper gathered "approximately three thousand samples" across five
// featured destinations (Germany, Ireland, N. Virginia, Singapore,
// Korea).  This harness runs that survey, reports the dataset size, the
// virtual duration of the campaign, the wall time our simulator needed,
// and a per-destination dataset overview.  With --journal <path> the
// database is durable, so the closing metrics table reports real
// group-commit pipeline numbers (flush latency, group size, stalls)
// instead of zeros.
#include <cstring>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace upin;
  const bool csv = bench::want_csv(argc, argv);
  std::string journal_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
    }
  }

  bench::Campaign campaign(42, {}, journal_path);
  measure::TestSuiteConfig config;
  config.iterations = 55;
  config.server_ids = {{bench::kGermanyId, bench::kNVirginiaId,
                        bench::kIrelandId, bench::kSingaporeId,
                        bench::kKoreaId}};

  const util::Stopwatch wall;
  const measure::TestSuiteProgress progress = campaign.run(config);
  const double wall_s = wall.seconds();

  const double virtual_s =
      util::to_seconds(campaign.host().clock().now());

  if (csv) {
    std::printf("server_id,paths,samples\n");
  } else {
    bench::print_header(
        "Survey scale — the paper's five-destination campaign (§6)",
        "paper: ~3000 samples over Germany, Ireland, N. Virginia, "
        "Singapore, Korea");
  }

  for (const int server_id :
       {bench::kGermanyId, bench::kNVirginiaId, bench::kIrelandId,
        bench::kSingaporeId, bench::kKoreaId}) {
    const auto summaries = campaign.summaries(server_id);
    std::size_t samples = 0;
    for (const auto& s : summaries) samples += s.samples;
    if (csv) {
      std::printf("%d,%zu,%zu\n", server_id, summaries.size(), samples);
    } else {
      std::printf("  server %d: %2zu paths, %4zu samples\n", server_id,
                  summaries.size(), samples);
    }
  }

  if (!csv) {
    std::printf("\ntotal stats documents : %zu (paper: ~3000)\n",
                progress.stats_inserted);
    std::printf("path tests run        : %zu (%zu ping failures, %zu bwtest "
                "failures)\n",
                progress.path_tests_run, progress.ping_failures,
                progress.bwtest_failures);
    std::printf("virtual campaign time : %.1f h\n", virtual_s / 3600.0);
    std::printf("wall time             : %.2f s (speedup %.0fx)\n", wall_s,
                virtual_s / wall_s);
    std::printf("\n%s", obs::pipeline_summary(obs::Registry::global()).c_str());
    if (!campaign.durable()) {
      std::printf("  (in-memory database: run with --journal <path> for real "
                  "pipeline numbers)\n");
    }
  }
  return 0;
}
