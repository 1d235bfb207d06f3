// fig4_reachability — reproduces paper Fig 4 and the §6 headline numbers.
//
// "Server Reachability from MY_AS#1": for each of the 21 availableServers
// destinations, the minimum hop count of any discovered path; reported as
// the histogram (#destinations per minimum hop count), the average path
// length (paper: 5.66) and the share of destinations reachable within
// 6 hops (paper: ~70%).
//
// With --churn the bench instead drives a revocation storm and compares
// cache-served lookups against uncached segment recombination: both arms
// must agree on reachability at every instant, and the cached arm must be
// at least 10x faster.  Exits non-zero when either property fails, so CI
// can pin it.
#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "common.hpp"
#include "util/clock.hpp"

namespace {

/// Wall-clock nanoseconds spent in `body()` (the bench's only use of real
/// time — virtual time drives everything else).
template <typename Body>
std::uint64_t time_ns(Body&& body) {
  const upin::util::Stopwatch watch;
  body();
  return static_cast<std::uint64_t>(watch.elapsed().count());
}

/// The --churn mode: one virtual hour of flap storm, sampled every 60 s.
/// At each instant, for every destination, resolve the live path set two
/// ways — through the host's path cache and by recombining segments from
/// scratch — and check the sequence sets match exactly.  `Beaconing`
/// keeps each pair's combination after its first call, so the uncached
/// arm asks a fresh `Beaconing` per lookup (built outside the timed
/// region): each timed call is a real recombination.
int run_churn(bool csv) {
  using namespace upin;
  using util::SimTime;

  simnet::NetworkConfig net;
  net.server_error_prob = 0.0;
  net.faults.link_flap_per_hour = 6.0;
  net.faults.server_down_per_hour = 2.0;
  bench::Campaign campaign(42, net);
  const auto& servers = campaign.env().servers;
  const scion::IsdAsn src = campaign.env().user_as;
  scion::ControlPlane& control_plane = campaign.host().control_plane();
  const scion::Beaconing& beaconing = campaign.host().beaconing();

  if (control_plane.revocations().events().empty()) {
    std::fprintf(stderr, "churn: storm emitted no revocations (vacuous)\n");
    return 1;
  }

  constexpr int kSteps = 60;           // one virtual hour...
  constexpr double kStepSeconds = 60;  // ...sampled every minute
  constexpr int kLookupsPerSample = 32;

  std::uint64_t cached_ns = 0;
  std::uint64_t uncached_ns = 0;
  std::size_t samples = 0;
  std::size_t mismatches = 0;
  std::size_t revoked_filtered = 0;

  for (int step = 0; step < kSteps; ++step) {
    const SimTime now = util::sim_seconds(step * kStepSeconds);
    control_plane.sync(now);
    // One fresh Beaconing per lookup of a sample; each combines every
    // destination once this step, so every timed call below is cold.
    std::vector<scion::Beaconing> fresh;
    fresh.reserve(kLookupsPerSample);
    for (int i = 0; i < kLookupsPerSample; ++i) {
      fresh.emplace_back(campaign.env().topology);
    }
    for (const auto& server : servers) {
      std::vector<scion::Path> cached;
      cached_ns += time_ns([&] {
        for (int i = 0; i < kLookupsPerSample; ++i) {
          cached = control_plane.live_paths(src, server.ia, now);
        }
      });
      std::vector<scion::Path> uncached;
      uncached_ns += time_ns([&] {
        for (int i = 0; i < kLookupsPerSample; ++i) {
          uncached = fresh[static_cast<std::size_t>(i)].paths(src, server.ia);
          uncached.erase(
              std::remove_if(uncached.begin(), uncached.end(),
                             [&](const scion::Path& path) {
                               return control_plane.path_revoked(path, now);
                             }),
              uncached.end());
        }
      });
      revoked_filtered +=
          beaconing.paths(src, server.ia).size() - uncached.size();
      ++samples;

      // Reachability parity: identical surviving sequences.  Compare the
      // hop sequences, not Path equality — the cached arm flags expired
      // paths "stale" where a fresh recombination says "alive".
      std::multiset<std::string> cached_seqs;
      for (const scion::Path& path : cached) {
        cached_seqs.insert(path.sequence());
      }
      std::multiset<std::string> uncached_seqs;
      for (const scion::Path& path : uncached) {
        uncached_seqs.insert(path.sequence());
      }
      if (cached_seqs != uncached_seqs) {
        ++mismatches;
        std::fprintf(stderr,
                     "churn: reachability diverged at t=%.0fs dst=%s "
                     "(cached %zu paths, uncached %zu)\n",
                     step * kStepSeconds, server.ia.to_string().c_str(),
                     cached_seqs.size(), uncached_seqs.size());
      }
    }
  }

  const double lookups =
      static_cast<double>(samples) * kLookupsPerSample;
  const double cached_us = static_cast<double>(cached_ns) / 1e3 / lookups;
  const double uncached_us = static_cast<double>(uncached_ns) / 1e3 / lookups;
  const double speedup =
      cached_ns > 0
          ? static_cast<double>(uncached_ns) / static_cast<double>(cached_ns)
          : 0.0;
  const scion::PathCache::Stats& stats = control_plane.cache().stats();

  if (csv) {
    std::printf("metric,value\n");
    std::printf("samples,%zu\n", samples);
    std::printf("mismatches,%zu\n", mismatches);
    std::printf("revoked_filtered,%zu\n", revoked_filtered);
    std::printf("cached_us_per_lookup,%.3f\n", cached_us);
    std::printf("uncached_us_per_lookup,%.3f\n", uncached_us);
    std::printf("speedup,%.1f\n", speedup);
  } else {
    bench::print_header(
        "Churn — cached vs uncached path lookup under a revocation storm",
        "6 link flaps/h + 2 server outages/h; every sample compares the "
        "cache-served live set against a fresh recombination");
    std::printf("samples                : %zu (%d instants x %zu dsts)\n",
                samples, kSteps, servers.size());
    std::printf("reachability mismatches: %zu (must be 0)\n", mismatches);
    std::printf("paths revoked away     : %zu across the sweep\n",
                revoked_filtered);
    std::printf("cache hits/misses/stale: %zu / %zu / %zu\n", stats.hits,
                stats.misses, stats.stale_served);
    std::printf("cached lookup          : %.2f us\n", cached_us);
    std::printf("uncached recombination : %.2f us\n", uncached_us);
    std::printf("speedup                : %.1fx (must be >= 10x)\n", speedup);
  }

  if (mismatches > 0) return 1;
  if (speedup < 10.0) {
    std::fprintf(stderr, "churn: cached lookup only %.1fx faster\n", speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace upin;
  const bool csv = bench::want_csv(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--churn") == 0) return run_churn(csv);
  }

  bench::Campaign campaign;
  const auto& servers = campaign.env().servers;

  std::map<std::size_t, std::vector<int>> histogram;  // min hops -> ids
  double hop_sum = 0.0;
  std::size_t reachable = 0;
  std::size_t within_six = 0;

  apps::ShowpathsOptions options;
  options.max_paths = 40;
  options.extended = true;

  for (std::size_t i = 0; i < servers.size(); ++i) {
    const int server_id = static_cast<int>(i) + 1;
    const auto listings = campaign.host().showpaths(servers[i].ia, options);
    if (!listings.ok() || listings.value().empty()) continue;
    const std::size_t min_hops = listings.value().front().path.hop_count();
    histogram[min_hops].push_back(server_id);
    hop_sum += static_cast<double>(min_hops);
    ++reachable;
    if (min_hops <= 6) ++within_six;
  }

  if (!csv) {
    bench::print_header(
        "Fig 4 — Server Reachability from MY_AS (" +
            campaign.env().user_as.to_string() + ")",
        "destinations requiring a minimum hop count (paper: avg 5.66, "
        "~70% within 6 hops)");
    std::printf("%-10s %-14s %s\n", "min hops", "#destinations", "server ids");
  } else {
    std::printf("min_hops,destinations\n");
  }

  for (const auto& [hops, ids] : histogram) {
    if (csv) {
      std::printf("%zu,%zu\n", hops, ids.size());
      continue;
    }
    std::string bar(ids.size() * 3, '#');
    std::string id_list;
    for (const int id : ids) {
      if (!id_list.empty()) id_list += ",";
      id_list += std::to_string(id);
    }
    std::printf("%-10zu %-3zu %-33s [%s]\n", hops, ids.size(), bar.c_str(),
                id_list.c_str());
  }

  const double avg = hop_sum / static_cast<double>(reachable);
  const double pct_within_six =
      100.0 * static_cast<double>(within_six) / static_cast<double>(reachable);
  if (csv) {
    std::printf("# reachable=%zu avg=%.2f within6=%.1f%%\n", reachable, avg,
                pct_within_six);
  } else {
    std::printf("\nreachable destinations : %zu (paper: 21)\n", reachable);
    std::printf("average path length    : %.2f hops (paper: 5.66)\n", avg);
    std::printf("within 6 hops          : %.1f%% (paper: ~70%%)\n",
                pct_within_six);
  }
  return 0;
}
