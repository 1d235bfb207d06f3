// survey.cpp — survey-paper and survey-durable: the paper's §6 campaign
// (servers 1-5, 55 iterations, default retry and breaker), driven one
// unit at a time through TestSuite::step() with each unit timed.  The
// durable variant journals through a counting VFS; nothing else differs,
// so the gap between the two workloads is the storage layer.
//
// The traced run replays every unit through the same public calls
// TestSuite::run_unit makes (host probes under run_with_retry and the
// per-destination CircuitBreaker, batch insert, control-plane checkpoint,
// metrics snapshot), with a span around each, and requires the replay to
// store the very paths_stats documents the stepped run stored.
#include <filesystem>

#include "apps/host.hpp"
#include "harness.hpp"
#include "measure/retry.hpp"
#include "measure/schema.hpp"
#include "obs/metrics.hpp"
#include "scion/scionlab.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace upin::e2e {
namespace {

using measure::TestSuite;
using util::ErrorCode;
using util::Result;
using util::Value;

/// The paper's five featured destinations (availableServers ids).
const std::vector<int> kSurveyServers = {1, 2, 3, 4, 5};

measure::TestSuiteConfig survey_config(const Options& options) {
  measure::TestSuiteConfig config;
  config.iterations = options.smoke ? 2 : 55;
  config.server_ids = kSurveyServers;
  return config;
}

/// One campaign's world: testbed, host, a private metrics registry (so
/// the campaign_metrics snapshots, and with them the journal bytes, are a
/// function of the campaign alone), the database and the suite.
struct Campaign {
  explicit Campaign(std::uint64_t seed)
      : env(scion::scionlab_topology()),
        host(env, seed, env.user_as, "10.0.8.1") {}

  scion::ScionlabEnv env;
  apps::ScionHost host;
  obs::Registry registry;
  std::unique_ptr<docdb::Database> db;
  std::unique_ptr<TestSuite> suite;
};

/// State shared by every campaign of one run.
struct SurveyRun {
  const Options& options;
  bool durable;
  Report& report;
  CountingVfs vfs;
  std::size_t journals = 0;
  std::vector<double> reopen_ms;

  [[nodiscard]] std::string next_journal() {
    if (!durable) return {};
    return options.data_dir + "/survey_" + std::to_string(journals++) +
           ".jsonl";
  }
};

/// Set up a campaign: testbed and host, database (journal through the
/// counting VFS when durable), suite, begin().  Null after a failed check.
std::unique_ptr<Campaign> set_up(SurveyRun& run, std::uint64_t seed,
                                 const std::string& journal) {
  auto campaign = std::make_unique<Campaign>(seed);
  if (journal.empty()) {
    campaign->db = std::make_unique<docdb::Database>();
  } else {
    docdb::DatabaseOptions storage;
    storage.vfs = &run.vfs;
    auto opened = docdb::Database::open(journal, storage);
    if (!opened.ok()) {
      run.report.check(false,
                       "open " + journal + ": " + opened.error().message);
      return nullptr;
    }
    campaign->db = std::move(opened).value();
  }
  measure::TestSuiteConfig config = survey_config(run.options);
  config.registry = &campaign->registry;
  campaign->suite =
      std::make_unique<TestSuite>(campaign->host, *campaign->db, config);
  const util::Status begun = campaign->suite->begin();
  if (!begun.ok()) {
    run.report.check(false, "begin: " + begun.error().message);
    return nullptr;
  }
  return campaign;
}

/// The output checks every finished campaign must pass: one stored doc
/// per counted insert, and balanced batches (paths of one destination
/// differ in sample count only by the samples failures cost).
void check_campaign(Report& report, const docdb::Database& db,
                    const measure::TestSuiteProgress& progress,
                    const std::string& what) {
  const docdb::Collection* stats = db.find_collection(measure::kPathsStats);
  const std::size_t stored = stats == nullptr ? 0 : stats->size();
  report.check(progress.stats_inserted == stored,
               what + ": stats_inserted " +
                   std::to_string(progress.stats_inserted) + " != stored " +
                   std::to_string(stored));
  const std::size_t spread = sample_count_spread(db);
  report.check(spread <= progress.ping_failures + progress.breaker_skips,
               what + ": unbalanced batches (sample spread " +
                   std::to_string(spread) + ")");
}

/// Close a durable campaign's database, reopen its journal, and require
/// the replayed paths_stats to equal the in-process documents.
void check_reopen(SurveyRun& run, std::unique_ptr<Campaign> campaign,
                  const std::string& journal, const StatsDigest& expected) {
  campaign.reset();
  {
    const std::int64_t start = now_ns();
    const auto reopened = docdb::Database::open(journal);
    run.reopen_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    if (!reopened.ok()) {
      run.report.check(false, "reopen " + journal + ": " +
                                  reopened.error().message);
    } else {
      run.report.check(stats_digest(*reopened.value()) == expected,
                       "reopened " + journal +
                           " differs from the in-process paths_stats");
    }
  }
  std::filesystem::remove(journal);
}

struct Stepped {
  std::size_t units = 0;
  StatsDigest digest;
  Counters counters;            ///< delta over the whole campaign
  double snapshot_bytes = 0.0;  ///< its final metrics snapshot
};

/// Run one campaign through TestSuite::step() until the plan is done or
/// `deadline_ns` passes, timing set-up and each unit into `timed` (null:
/// warm-up, untimed).
Stepped run_stepped(SurveyRun& run, std::uint64_t seed,
                    std::int64_t deadline_ns, Report* timed) {
  Stepped result;
  const Counters before = Counters::read(&run.vfs);
  const std::string journal = run.next_journal();
  const std::int64_t setup_cpu = thread_cpu_ns();
  const std::int64_t setup_start = now_ns();
  std::unique_ptr<Campaign> campaign = set_up(run, seed, journal);
  if (campaign == nullptr) return result;
  if (timed != nullptr) {
    timed->setup(setup_start, now_ns(), thread_cpu_ns() - setup_cpu);
  }

  while (result.units == 0 || now_ns() < deadline_ns) {
    const std::size_t stored = campaign->suite->progress().stats_inserted;
    const std::int64_t cpu = thread_cpu_ns();
    const std::int64_t start = now_ns();
    const Result<TestSuite::StepOutcome> outcome = campaign->suite->step();
    const std::int64_t end = now_ns();
    const std::int64_t cpu_used = thread_cpu_ns() - cpu;
    if (outcome.ok() && outcome.value() == TestSuite::StepOutcome::kDone) break;
    if (timed != nullptr) ++timed->attempted;
    if (!outcome.ok()) {
      if (timed != nullptr) ++timed->failed;
      run.report.check(false, "step: " + outcome.error().message);
      break;
    }
    ++result.units;
    if (timed != nullptr) {
      const std::size_t docs =
          campaign->suite->progress().stats_inserted - stored;
      timed->op(start, end, cpu_used, static_cast<double>(docs));
      timed->probe.tick();
    }
  }
  const util::Status finished = campaign->suite->finish();
  run.report.check(finished.ok(), "finish failed");
  result.counters = Counters::read(&run.vfs) - before;
  result.snapshot_bytes =
      static_cast<double>(campaign->registry.snapshot().dump().size());

  const measure::TestSuiteProgress& progress = campaign->suite->progress();
  check_campaign(run.report, *campaign->db, progress, "campaign");
  result.digest = stats_digest(*campaign->db);
  if (run.durable) {
    check_reopen(run, std::move(campaign), journal, result.digest);
  }
  return result;
}

// ---- traced replay ----------------------------------------------------------

struct Destination {
  int server_id = 0;
  scion::SnetAddress address;
};

/// Accumulated over every replayed unit of a run.
struct Replay {
  Tracer tracer;
  std::size_t units = 0;
  std::size_t pings = 0;
  std::size_t bwtests = 0;
  std::size_t docs_returned = 0;
  std::size_t inserts = 0;
  std::size_t retries = 0;
  double checkpoint_bytes = 0.0;
  double docs = 0.0;
  double wall_s = 0.0;
  OpTally tally;
};

/// The replayed campaigns' stepped runs, summed: what the real
/// TestSuite path did to the VFS, the journal, the query planner and the
/// path cache, and what it stored.
struct SteppedTotals {
  Counters counters;
  double units = 0.0;
  double docs = 0.0;
  double user_bytes = 0.0;
  double snapshot_bytes = 0.0;
  double campaigns = 0.0;

  void add(const Stepped& stepped) {
    counters += stepped.counters;
    units += static_cast<double>(stepped.units);
    docs += static_cast<double>(stepped.digest.docs);
    user_bytes += static_cast<double>(stepped.digest.bytes);
    snapshot_bytes += stepped.snapshot_bytes;
    campaigns += 1.0;
  }
};

/// One (destination, iteration) unit, through the calls
/// TestSuite::run_unit makes, in its order.  Returns the control-plane
/// checkpoint so its size is measured outside the unit's span.
Value replay_unit(Campaign& campaign, const measure::TestSuiteConfig& config,
                  const Destination& destination, int iteration,
                  std::map<int, measure::CircuitBreaker>& breakers,
                  measure::TestSuiteProgress& progress, Replay& replay) {
  Tracer& tracer = replay.tracer;
  apps::ScionHost& host = campaign.host;
  docdb::Database& db = *campaign.db;

  std::vector<docdb::Document> path_docs;
  {
    const Tracer::Span span(tracer, "docdb.find");
    util::JsonObject query;
    query.set("server_id", Value(destination.server_id));
    const Result<docdb::Filter> by_server =
        docdb::Filter::compile(Value(std::move(query)));
    docdb::FindOptions in_order;
    in_order.sort_by = "path_index";
    if (by_server.ok()) {
      path_docs =
          db.collection(measure::kPaths).find(by_server.value(), in_order);
    }
  }
  replay.docs_returned += path_docs.size();

  measure::CircuitBreaker& breaker =
      breakers.try_emplace(destination.server_id, config.breaker).first->second;
  std::vector<docdb::Document> batch;
  batch.reserve(path_docs.size());

  for (const docdb::Document& path_doc : path_docs) {
    const Result<measure::PathRecord> record = [&] {
      const Tracer::Span span(tracer, "measure.parse");
      return measure::parse_path_document(path_doc);
    }();
    if (!record.ok()) continue;
    if (!breaker.allow(host.clock().now())) {
      ++progress.breaker_skips;
      continue;
    }

    measure::StatsSample sample;
    sample.path_id = record.value().id;
    sample.server_id = destination.server_id;
    sample.hop_count = record.value().hop_count;
    sample.isds = record.value().isds;
    sample.target_mbps = config.bw_target_mbps;

    apps::PingOptions ping_options;
    ping_options.count = config.ping_count;
    ping_options.interval_s = config.ping_interval_s;
    ping_options.sequence = record.value().sequence;
    const Result<apps::PingReport> ping = [&] {
      const Tracer::Span span(tracer, "apps.ping");
      return measure::run_with_retry<apps::PingReport>(
          config.retry, host.clock(), "ping:" + sample.path_id, progress.retry,
          [&] {
            ++replay.pings;
            return host.ping(destination.address, ping_options);
          });
    }();
    if (!ping.ok()) {
      ++progress.ping_failures;
      if (ping.error().code != ErrorCode::kRevoked &&
          ping.error().code != ErrorCode::kExpired) {
        breaker.record_failure(host.clock().now());
      }
      continue;
    }
    sample.latency_ms = ping.value().stats.avg_ms();
    sample.loss_pct = ping.value().stats.loss_pct();
    sample.jitter_ms = ping.value().stats.stddev_ms();

    const auto bw_spec = [&](std::string_view size) {
      return util::format("%g,%.*s,?,%gMbps", config.bw_duration_s,
                          static_cast<int>(size.size()), size.data(),
                          config.bw_target_mbps);
    };
    const auto run_bwtest = [&](const std::string& spec,
                                std::string_view label) {
      apps::BwtestOptions options;
      options.cs_spec = spec;
      options.sequence = record.value().sequence;
      const Tracer::Span span(tracer, "apps.bwtest");
      return measure::run_with_retry<apps::BwtestReport>(
          config.retry, host.clock(), std::string(label) + ":" + sample.path_id,
          progress.retry, [&] {
            ++replay.bwtests;
            return host.bwtestclient(destination.address, options);
          });
    };
    const Result<apps::BwtestReport> small =
        run_bwtest(bw_spec(util::format("%g", config.small_packet_bytes)),
                   "bw64");
    const Result<apps::BwtestReport> mtu = run_bwtest(bw_spec("MTU"), "bwmtu");

    bool operation_failed = false;
    bool data_plane_failed = false;
    const auto note_bw_failure = [&](const util::Error& error) {
      ++progress.bwtest_failures;
      operation_failed = true;
      data_plane_failed |= error.code != ErrorCode::kRevoked &&
                           error.code != ErrorCode::kExpired;
    };
    if (small.ok()) {
      sample.bw_up_64 = small.value().client_to_server.achieved_mbps;
      sample.bw_down_64 = small.value().server_to_client.achieved_mbps;
    } else {
      note_bw_failure(small.error());
    }
    if (mtu.ok()) {
      sample.bw_up_mtu = mtu.value().client_to_server.achieved_mbps;
      sample.bw_down_mtu = mtu.value().server_to_client.achieved_mbps;
    } else {
      note_bw_failure(mtu.error());
    }
    if (!operation_failed) {
      breaker.record_success();
    } else if (data_plane_failed) {
      breaker.record_failure(host.clock().now());
    }

    sample.timestamp = host.clock().now();
    {
      const Tracer::Span span(tracer, "measure.encode");
      batch.push_back(measure::stats_document(sample));
    }
    ++progress.path_tests_run;
    host.clock().advance(util::sim_seconds(config.inter_test_gap_s));
  }
  progress.breaker_trips = std::max(progress.breaker_trips, breaker.trips());

  const std::size_t batch_size = batch.size();
  if (batch_size > 0) {
    const Tracer::Span span(tracer, "docdb.insert");
    ++replay.inserts;
    docdb::Collection& stats = db.collection(measure::kPathsStats);
    if (!stats.insert_many(std::move(batch)).ok()) {
      ++progress.batches_rejected;
      return Value();  // as run_unit: no checkpoint for a lost batch
    }
    progress.stats_inserted += batch_size;
    ++progress.batches_inserted;
  }

  measure::CampaignCheckpoint checkpoint;
  checkpoint.server_id = destination.server_id;
  checkpoint.iteration = iteration;
  checkpoint.clock_end = host.clock().now();
  checkpoint.samples_stored = batch_size;
  checkpoint.breaker_failures = breaker.consecutive_failures();
  checkpoint.breaker_open = breaker.is_open();
  checkpoint.breaker_opened_at = breaker.opened_at();
  {
    const Tracer::Span span(tracer, "scion.checkpoint");
    checkpoint.path_cache = host.control_plane().checkpoint();
  }
  docdb::Document checkpoint_doc;
  {
    const Tracer::Span span(tracer, "measure.encode");
    checkpoint_doc = measure::checkpoint_document(checkpoint);
  }
  {
    const Tracer::Span span(tracer, "docdb.insert");
    ++replay.inserts;
    docdb::Collection& checkpoints =
        db.collection(measure::kCampaignCheckpoints);
    checkpoints.delete_by_id(
        measure::checkpoint_doc_id(destination.server_id, iteration));
    (void)checkpoints.insert_one(std::move(checkpoint_doc));
  }
  Value snapshot;
  {
    const Tracer::Span span(tracer, "obs.snapshot");
    snapshot = campaign.registry.snapshot();
  }
  docdb::Document metrics_doc;
  {
    const Tracer::Span span(tracer, "measure.encode");
    metrics_doc = measure::metrics_document(
        "latest", "checkpoint", host.clock().now(), std::move(snapshot));
  }
  {
    const Tracer::Span span(tracer, "docdb.insert");
    ++replay.inserts;
    docdb::Collection& metrics = db.collection(measure::kCampaignMetrics);
    metrics.delete_by_id("latest");
    (void)metrics.insert_one(std::move(metrics_doc));
  }
  return std::move(checkpoint.path_cache);
}

/// Replay the first `units` units of campaign `seed` with spans, and
/// require its paths_stats to equal the stepped run's.
void replay_campaign(SurveyRun& run, std::uint64_t seed, std::size_t units,
                     const StatsDigest& expected, Replay& replay) {
  const std::string journal = run.next_journal();
  std::unique_ptr<Campaign> campaign = set_up(run, seed, journal);
  if (campaign == nullptr) return;
  const measure::TestSuiteConfig config = survey_config(run.options);

  std::vector<Destination> destinations;
  for (std::size_t i = 0; i < campaign->env.servers.size(); ++i) {
    const int id = static_cast<int>(i) + 1;
    if (std::find(kSurveyServers.begin(), kSurveyServers.end(), id) !=
        kSurveyServers.end()) {
      destinations.push_back(Destination{id, campaign->env.servers[i]});
    }
  }
  std::map<int, measure::CircuitBreaker> breakers;
  measure::TestSuiteProgress progress;
  for (std::size_t u = 0; u < units; ++u) {
    const int iteration = static_cast<int>(u / destinations.size());
    const Destination& destination = destinations[u % destinations.size()];
    const std::int64_t start = now_ns();
    Value path_cache;
    {
      const Tracer::Span span(replay.tracer, "unit", u);
      path_cache = replay_unit(*campaign, config, destination, iteration,
                               breakers, progress, replay);
    }
    replay.wall_s += seconds_since(start);
    replay.checkpoint_bytes += static_cast<double>(path_cache.dump().size());
  }
  replay.units += units;
  replay.retries += progress.retry.retries;
  replay.docs += static_cast<double>(progress.stats_inserted);
  replay.tally.add(progress);
  check_campaign(run.report, *campaign->db, progress, "replay");

  const StatsDigest digest = stats_digest(*campaign->db);
  run.report.check(digest == expected,
                   "replay paths_stats digest " + digest.hex +
                       " != stepped run " + expected.hex);
  if (run.durable) {
    campaign.reset();
    std::filesystem::remove(journal);
  }
}

/// Per-layer metrics (per unit unless the name says ratio, share or
/// coverage): span self times from the replay, counters and byte counts
/// from the stepped runs it replayed.
void report_layers(Report& report, const Replay& replay,
                   const SteppedTotals& stepped, double untraced_docs_per_s) {
  const double units = static_cast<double>(replay.units);
  const Tracer& tracer = replay.tracer;
  auto& layer = report.layer;
  layer["apps.ping.self_us"] = tracer.self_us("apps.ping", units);
  layer["apps.ping.calls"] = static_cast<double>(replay.pings) / units;
  layer["apps.bwtest.self_us"] = tracer.self_us("apps.bwtest", units);
  layer["apps.bwtest.calls"] = static_cast<double>(replay.bwtests) / units;
  layer["scion.checkpoint.self_us"] = tracer.self_us("scion.checkpoint", units);
  layer["scion.checkpoint.bytes"] = replay.checkpoint_bytes / units;
  layer["measure.encode.self_us"] = tracer.self_us("measure.encode", units);
  layer["measure.parse.self_us"] = tracer.self_us("measure.parse", units);
  layer["measure.residual_us"] = tracer.self_us("unit", units);
  layer["measure.retry.retries"] = static_cast<double>(replay.retries) / units;
  layer["measure.failed_share"] = replay.tally.share();
  layer["docdb.find.self_us"] = tracer.self_us("docdb.find", units);
  layer["docdb.find.docs_returned"] =
      static_cast<double>(replay.docs_returned) / units;
  layer["docdb.insert.self_us"] = tracer.self_us("docdb.insert", units);
  layer["docdb.insert.calls"] = static_cast<double>(replay.inserts) / units;
  layer["obs.snapshot.self_us"] = tracer.self_us("obs.snapshot", units);
  layer["obs.snapshot.bytes"] = stepped.snapshot_bytes / stepped.campaigns;
  add_counter_layers(report, stepped.counters, stepped.units, stepped.docs,
                     stepped.user_bytes);
  const double coverage = add_trace_layers(
      report, tracer, "unit", untraced_docs_per_s, replay.docs / replay.wall_s);
  report.check(coverage >= 0.90,
               util::format("trace coverage %.3f < 0.90", coverage));
}

}  // namespace

Report run_survey(const Options& options, bool durable) {
  Report report;
  SurveyRun run{options, durable, report, {}, 0, {}};
  if (durable) report.probe.enable_io(options.data_dir);

  // One warm-up campaign: caches, allocator and page cache settle.
  (void)run_stepped(run, derive_seed(options.seed, 0), INT64_MAX, nullptr);
  run.reopen_ms.clear();
  // A run sees only ~10 campaigns and set-up takes milliseconds, so it
  // also times set-ups alone for a steadier setup_s median: three after
  // each campaign, so that they sample the host across the whole run
  // rather than one moment of it.
  const auto lone_setups = [&] {
    for (int i = 0; i < 3; ++i) {
      report.probe.tick();
      const std::string journal = run.next_journal();
      const std::int64_t cpu = thread_cpu_ns();
      const std::int64_t start = now_ns();
      std::unique_ptr<Campaign> campaign =
          set_up(run, derive_seed(options.seed, 1), journal);
      report.setup(start, now_ns(), thread_cpu_ns() - cpu);
      campaign.reset();
      if (durable) std::filesystem::remove(journal);
    }
  };

  Replay replay;
  SteppedTotals replayed;
  report.probe.sample();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::uint64_t index = 1;
  do {
    const std::uint64_t seed = derive_seed(options.seed, index++);
    const Stepped stepped = run_stepped(run, seed, deadline, &report);
    if (options.trace && stepped.units > 0) {
      replay_campaign(run, seed, stepped.units, stepped.digest, replay);
      replayed.add(stepped);
    }
    lone_setups();
  } while (now_ns() < deadline);

  report.notes.push_back(util::format("unit samples: %zu", report.ops.size()));
  if (durable) {
    report.notes.push_back("journal filesystem: " +
                           filesystem_type(options.data_dir));
  }
  if (options.trace && replay.units > 0) {
    report_layers(report, replay, replayed, report.docs_per_s());
    if (!run.reopen_ms.empty()) {
      report.layer["docdb.replay_ms"] = util::mean(run.reopen_ms);
    }
    write_trace(report, replay.tracer, options);
  }
  return report;
}

}  // namespace upin::e2e
