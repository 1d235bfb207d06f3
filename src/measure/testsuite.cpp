#include "measure/testsuite.hpp"

#include <algorithm>
#include <climits>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"
#include "util/sha256.hpp"
#include "util/strings.hpp"

namespace upin::measure {

using docdb::Document;
using docdb::Filter;
using util::ErrorCode;
using util::Result;
using util::Status;
using util::Value;

TestSuite::TestSuite(apps::ScionHost& host, docdb::Database& db,
                     TestSuiteConfig config)
    : host_(host), db_(db), config_(std::move(config)) {
  // The two `-cs` specs, d,{64|MTU},?,target, built once per suite.
  const auto bw_spec = [&](const std::string& size) {
    return util::format("%g,%s,?,%gMbps", config_.bw_duration_s, size.c_str(),
                        config_.bw_target_mbps);
  };
  bw_small_spec_ = bw_spec(util::format("%g", config_.small_packet_bytes));
  bw_mtu_spec_ = bw_spec("MTU");
  // Resolve the counter handles once (registration mutex), so every
  // update below is a lock-free sharded add.  All of these advance with
  // virtual-time logic only — fixed-seed runs reproduce the values
  // exactly, which is what makes per-campaign registries comparable
  // between a solo run and an in-fleet run.
  obs::Registry& reg = registry();
  metrics_.pings = &reg.counter("upin_measure_pings_total");
  metrics_.ping_failures = &reg.counter("upin_measure_ping_failures_total");
  metrics_.bwtests = &reg.counter("upin_measure_bwtests_total");
  metrics_.bwtest_failures = &reg.counter("upin_measure_bwtest_failures_total");
  metrics_.path_tests = &reg.counter("upin_measure_path_tests_total");
  metrics_.breaker_skips = &reg.counter("upin_measure_breaker_skips_total");
  metrics_.stats_inserted = &reg.counter("upin_measure_stats_inserted_total");
  metrics_.batches_inserted =
      &reg.counter("upin_measure_batches_inserted_total");
  metrics_.batches_rejected =
      &reg.counter("upin_measure_batches_rejected_total");
  metrics_.checkpoints = &reg.counter("upin_measure_checkpoints_total");
  metrics_.units_skipped = &reg.counter("upin_measure_units_skipped_total");
  metrics_.probes_shed = &reg.counter("upin_measure_probes_shed_total");
}

obs::Registry& TestSuite::registry() const {
  return config_.registry != nullptr ? *config_.registry
                                     : obs::Registry::global();
}

void TestSuite::enable_signed_writes(scion::TrustStore& trust) {
  trust_ = &trust;
}

Status TestSuite::initialize() {
  docdb::Collection& servers = db_.collection(kAvailableServers);
  const std::vector<scion::SnetAddress>& registry = host_.env().servers;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const int server_id = static_cast<int>(i) + 1;
    if (servers.find_by_id(std::to_string(server_id)).ok()) continue;
    Result<std::string> inserted =
        servers.insert_one(server_document(server_id, registry[i]));
    if (!inserted.ok()) return Status(inserted.error());
  }
  db_.collection(kPaths).create_index("server_id");
  db_.collection(kPathsStats).create_index("path_id");
  db_.collection(kPathsStats).create_index("server_id");
  // The selection layer's hottest query (§6: per-path stats since a
  // cutoff) pins path_id and ranges over timestamp_ms — one compound
  // range scan instead of a per-path bucket filter.
  db_.collection(kPathsStats).create_index("path_id,timestamp_ms");
  return Status::success();
}

std::vector<TestSuite::Destination> TestSuite::selected_destinations() const {
  std::vector<Destination> destinations;
  const std::vector<scion::SnetAddress>& registry = host_.env().servers;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const int server_id = static_cast<int>(i) + 1;
    if (config_.server_ids.has_value() &&
        std::find(config_.server_ids->begin(), config_.server_ids->end(),
                  server_id) == config_.server_ids->end()) {
      continue;
    }
    destinations.push_back(Destination{server_id, registry[i]});
    if (config_.some_only) break;  // --some_only: first destination only
  }
  return destinations;
}

Status TestSuite::collect_paths() {
  docdb::Collection& paths = db_.collection(kPaths);
  path_records_.clear();

  for (const Destination& destination : selected_destinations()) {
    apps::ShowpathsOptions options;
    options.max_paths = config_.showpaths_max;
    options.extended = true;
    Result<std::vector<apps::PathListing>> listings =
        host_.showpaths(destination.address.ia, options);
    if (!listings.ok()) {
      util::Log::warn("showpaths to server " +
                      std::to_string(destination.server_id) +
                      " failed: " + listings.error().message);
      continue;
    }
    if (listings.value().empty()) continue;

    // Retain only paths with hop count <= min + slack (paper §5.2: "paths
    // with a number of hops at most equal to the minimum required plus
    // one").
    const std::size_t min_hops = listings.value().front().path.hop_count();
    std::vector<Document> fresh;
    std::vector<std::string> fresh_ids;
    int path_index = 0;
    for (const apps::PathListing& listing : listings.value()) {
      if (listing.path.hop_count() > min_hops + config_.hop_slack) continue;
      const std::string id = path_doc_id(destination.server_id, path_index);
      fresh.push_back(
          path_document(destination.server_id, path_index, listing.path));
      fresh_ids.push_back(id);
      ++path_index;
    }

    // Delete documents for paths of this destination that vanished
    // (paper §5.2: "no longer available paths ... are deleted"), then
    // upsert the fresh set.
    util::JsonObject query;
    query.set("server_id", Value(destination.server_id));
    Result<Filter> by_server = Filter::compile(Value(std::move(query)));
    if (!by_server.ok()) return Status(by_server.error());
    const std::unordered_set<std::string_view> fresh_id_set(fresh_ids.begin(),
                                                            fresh_ids.end());
    for (const Document& existing : paths.find(by_server.value())) {
      const auto id = docdb::document_id(existing);
      if (!id.has_value()) continue;
      if (!fresh_id_set.contains(*id)) {
        paths.delete_by_id(*id);
        ++progress_.paths_deleted;
      }
    }
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      paths.delete_by_id(fresh_ids[i]);  // replace previous snapshot
      Result<std::string> inserted = paths.insert_one(std::move(fresh[i]));
      if (!inserted.ok()) return Status(inserted.error());
      ++progress_.paths_collected;
    }
    ++progress_.destinations_visited;
  }
  return Status::success();
}

Status TestSuite::store_batch(std::vector<Document> docs) {
  if (docs.empty()) return Status::success();
  const std::size_t batch_size = docs.size();

  Result<std::vector<std::string>> inserted =
      trust_ == nullptr
          ? db_.collection(kPathsStats).insert_many(std::move(docs))
          : signed_insert(std::move(docs));
  if (!inserted.ok()) {
    ++progress_.batches_rejected;
    metrics_.batches_rejected->add();
    return Status(inserted.error());
  }
  progress_.stats_inserted += batch_size;
  ++progress_.batches_inserted;
  metrics_.stats_inserted->add(batch_size);
  metrics_.batches_inserted->add();
  return Status::success();
}

Result<std::vector<std::string>> TestSuite::signed_insert(
    std::vector<Document> docs) {
  // Signed write: fresh one-time key, certificate from our ISD core,
  // signature over the batch digest (paper §4.2.2's designed PKC gate).
  const std::string batch_label =
      "batch:" + std::to_string(batch_counter_++);
  const util::LamportKeyPair key = trust_->generate_client_key(batch_label);
  Result<scion::Certificate> cert = trust_->issue_certificate(
      host_.address().local.ia, key.public_key);
  if (!cert.ok()) return cert.error();
  std::string payload;
  for (const Document& doc : docs) payload += doc.dump();
  const std::string digest_hex = util::to_hex(util::Sha256::hash(payload));

  scion::WriteCredential credential;
  credential.certificate = std::move(cert).value();
  credential.subject_key = key.public_key;
  credential.batch_digest_hex = digest_hex;
  credential.batch_signature = util::lamport_sign(key.private_key, digest_hex);

  return db_.guarded_insert_many(
      kPathsStats, std::move(docs),
      scion::TrustStore::encode_credential(credential));
}

std::size_t TestSuite::completed_iterations(int server_id) const {
  // A destination's completed iteration count is the *minimum* number of
  // stored samples over its paths: batching per destination keeps these
  // balanced, and a crash can only leave the last iteration partial.
  const docdb::Collection* paths = db_.find_collection(kPaths);
  const docdb::Collection* stats = db_.find_collection(kPathsStats);
  if (paths == nullptr || stats == nullptr) return 0;

  util::JsonObject query;
  query.set("server_id", Value(server_id));
  Result<Filter> by_server = Filter::compile(Value(std::move(query)));
  if (!by_server.ok()) return 0;

  std::size_t minimum = SIZE_MAX;
  bool any = false;
  for (const Document& path_doc : paths->find(by_server.value())) {
    const auto id = docdb::document_id(path_doc);
    if (!id.has_value()) continue;
    util::JsonObject stats_query;
    stats_query.set("path_id", Value(std::string(*id)));
    Result<Filter> by_path = Filter::compile(Value(std::move(stats_query)));
    if (!by_path.ok()) return 0;
    minimum = std::min(minimum, stats->count(by_path.value()));
    any = true;
  }
  return any ? minimum : 0;
}

void TestSuite::note_failure(const util::Error& error) {
  progress_.errors.record(classify_fault(error.code));
}

CircuitBreaker& TestSuite::breaker_for(int server_id) {
  auto it = breakers_.find(server_id);
  if (it == breakers_.end()) {
    it = breakers_.emplace(server_id, CircuitBreaker(config_.breaker)).first;
  }
  return it->second;
}

void TestSuite::record_metrics_snapshot(const std::string& id,
                                        const std::string& stage) {
  docdb::Collection& metrics = db_.collection(kCampaignMetrics);
  metrics.delete_by_id(id);
  Result<std::string> inserted = metrics.insert_one(metrics_document(
      id, stage, host_.clock().now(), registry().snapshot()));
  if (!inserted.ok()) {
    util::Log::warn("campaign_metrics snapshot failed: " +
                    inserted.error().message);
  }
}

Result<const std::vector<Result<PathRecord>>*> TestSuite::path_records(
    int server_id) {
  auto it = path_records_.find(server_id);
  if (it != path_records_.end()) return &it->second;
  util::JsonObject query;
  query.set("server_id", Value(server_id));
  Result<Filter> by_server = Filter::compile(Value(std::move(query)));
  if (!by_server.ok()) return by_server.error();
  docdb::FindOptions in_order;
  in_order.sort_by = "path_index";
  std::vector<Result<PathRecord>> records;
  for (const Document& path_doc :
       db_.collection(kPaths).find(by_server.value(), in_order)) {
    records.push_back(parse_path_document(path_doc));
  }
  return &path_records_.emplace(server_id, std::move(records)).first->second;
}

Status TestSuite::run_unit(const Destination& destination, int iteration,
                           bool shed_bandwidth) {
  // Span names are built only for a tracer that records them.
  const bool traced = config_.tracer != nullptr;
  const obs::ScopedSpan unit_span(
      config_.tracer, host_.clock(),
      traced ? util::format("unit s%d i%d", destination.server_id, iteration)
             : std::string());
  const Result<const std::vector<Result<PathRecord>>*> records =
      path_records(destination.server_id);
  if (!records.ok()) return Status(records.error());

  CircuitBreaker& breaker = breaker_for(destination.server_id);

  // One batch per destination: losing a crash's worth of data drops
  // at most one balanced sample per path (paper §4.2.2).
  std::vector<Document> batch;
  batch.reserve(records.value()->size());

  for (const Result<PathRecord>& record : *records.value()) {
    if (!record.ok()) {
      util::Log::warn("skipping malformed path doc: " +
                      record.error().message);
      continue;
    }

    // An open breaker means this destination has been failing hard:
    // stop hammering it and accept partial results for the unit.  A
    // shed (degraded-tenant) unit is exempt: its cheap ping doubles as
    // the breaker's half-open probe — without it, a breaker that opened
    // in zero-cost skip units would never see the cooldown elapse and
    // the tenant could never demonstrate recovery.
    if (!shed_bandwidth && !breaker.allow(host_.clock().now())) {
      ++progress_.breaker_skips;
      metrics_.breaker_skips->add();
      continue;
    }
    const obs::ScopedSpan path_span(
        config_.tracer, host_.clock(),
        traced ? "path " + record.value().id : std::string());

    StatsSample sample;
    sample.path_id = record.value().id;
    sample.server_id = destination.server_id;
    sample.hop_count = record.value().hop_count;
    sample.isds = record.value().isds;
    sample.target_mbps = config_.bw_target_mbps;

    // --- latency & loss: scion ping -c 30 --interval 0.1s ---------
    apps::PingOptions ping_options;
    ping_options.count = config_.ping_count;
    ping_options.interval_s = config_.ping_interval_s;
    ping_options.sequence = record.value().sequence;
    metrics_.pings->add();
    Result<apps::PingReport> ping = [&] {
      const obs::ScopedSpan probe_span(config_.tracer, host_.clock(), "ping");
      return run_with_retry<apps::PingReport>(
          config_.retry, host_.clock(), "ping:" + sample.path_id,
          progress_.retry,
          [&] { return host_.ping(destination.address, ping_options); });
    }();
    if (!ping.ok()) {
      ++progress_.ping_failures;
      metrics_.ping_failures->add();
      note_failure(ping.error());
      // A control-plane death says nothing about the destination.
      if (!control_plane_death(ping.error())) {
        breaker.record_failure(host_.clock().now());
      }
      util::Log::warn("ping " + sample.path_id +
                      " failed: " + ping.error().message);
      continue;  // server failure: skip this path, keep the campaign
    }
    sample.latency_ms = ping.value().stats.avg_ms();
    sample.loss_pct = ping.value().stats.loss_pct();
    sample.jitter_ms = ping.value().stats.stddev_ms();

    if (shed_bandwidth) {
      // Degraded-tenant mode: the cheap latency/loss probes keep flowing,
      // the two expensive bandwidth probes are shed.  The ping succeeded,
      // so the breaker records a healthy destination.
      progress_.probes_shed += 2;
      metrics_.probes_shed->add(2);
      breaker.record_success();
    } else {
      // --- bandwidth: scion-bwtestclient -cs d,{64|MTU},?,target ----
      const auto run_bwtest = [&](const std::string& spec,
                                  std::string_view label)
          -> Result<apps::BwtestReport> {
        apps::BwtestOptions options;
        options.cs_spec = spec;
        options.sequence = record.value().sequence;
        metrics_.bwtests->add();
        const obs::ScopedSpan probe_span(config_.tracer, host_.clock(),
                                         std::string(label));
        return run_with_retry<apps::BwtestReport>(
            config_.retry, host_.clock(),
            std::string(label) + ":" + sample.path_id, progress_.retry,
            [&] { return host_.bwtestclient(destination.address, options); });
      };
      Result<apps::BwtestReport> small = run_bwtest(bw_small_spec_, "bw64");
      Result<apps::BwtestReport> mtu = run_bwtest(bw_mtu_spec_, "bwmtu");

      if (small.ok()) {
        sample.bw_up_64 = small.value().client_to_server.achieved_mbps;
        sample.bw_down_64 = small.value().server_to_client.achieved_mbps;
      }
      if (mtu.ok()) {
        sample.bw_up_mtu = mtu.value().client_to_server.achieved_mbps;
        sample.bw_down_mtu = mtu.value().server_to_client.achieved_mbps;
      }
      bool operation_failed = false;
      bool data_plane_failed = false;
      for (const Result<apps::BwtestReport>* leg : {&small, &mtu}) {
        if (leg->ok()) continue;
        ++progress_.bwtest_failures;
        metrics_.bwtest_failures->add();
        note_failure(leg->error());
        operation_failed = true;
        data_plane_failed |= !control_plane_death(leg->error());
      }

      if (operation_failed) {
        // Same rule as the ping leg: only data-plane faults count against
        // the breaker — a revoked path says nothing about server health.
        if (data_plane_failed) breaker.record_failure(host_.clock().now());
      } else {
        breaker.record_success();
      }
    }

    sample.timestamp = host_.clock().now();
    batch.push_back(stats_document(sample));
    ++progress_.path_tests_run;
    metrics_.path_tests->add();

    host_.clock().advance(util::sim_seconds(config_.inter_test_gap_s));
  }
  if (breaker.trips() > progress_.breaker_trips) {
    progress_.breaker_trips = breaker.trips();
  }

  const std::size_t batch_size = batch.size();
  // Durability is pipelined one unit deep.  Wait for the previous unit's
  // writes first (the journal writer has had this whole unit of
  // measuring to commit them), then store this unit's batch, checkpoint
  // and metrics snapshot without waiting: the next unit, or finish(),
  // waits for them.  A crash still loses at most one batch (§4.2.2), and
  // journal order keeps a checkpoint from becoming durable without its
  // batch, so a resume re-measures exactly the units a crash lost.
  if (const Status earlier = db_.sync(); !earlier.ok()) {
    util::Log::error("writes before unit s" +
                     std::to_string(destination.server_id) + " i" +
                     std::to_string(iteration) +
                     " not durable: " + earlier.error().message);
    progress_.errors.record(FaultKind::kStorage);
  }
  const docdb::DeferredSync unit_writes(db_);
  const Status stored = store_batch(std::move(batch));
  if (!stored.ok()) {
    util::Log::error("batch insert for server " +
                     std::to_string(destination.server_id) +
                     " failed: " + stored.error().message);
    progress_.errors.record(FaultKind::kStorage);
    // Data for this destination+iteration is lost; keep running.  No
    // checkpoint: a resume will re-measure the unit.
  } else if (config_.checkpoints) {
    CampaignCheckpoint checkpoint;
    checkpoint.server_id = destination.server_id;
    checkpoint.iteration = iteration;
    checkpoint.clock_end = host_.clock().now();
    checkpoint.samples_stored = batch_size;
    checkpoint.breaker_failures = breaker.consecutive_failures();
    checkpoint.breaker_open = breaker.is_open();
    checkpoint.breaker_opened_at = breaker.opened_at();
    checkpoint.path_cache = host_.control_plane().checkpoint();
    docdb::Collection& checkpoints = db_.collection(kCampaignCheckpoints);
    checkpoints.delete_by_id(
        checkpoint_doc_id(destination.server_id, iteration));
    Result<std::string> inserted =
        checkpoints.insert_one(checkpoint_document(std::move(checkpoint)));
    if (inserted.ok()) {
      ++progress_.checkpoints_recorded;
      metrics_.checkpoints->add();
    } else {
      util::Log::warn("checkpoint insert failed: " +
                      inserted.error().message);
      progress_.errors.record(FaultKind::kStorage);
    }
    if (config_.metrics_snapshots) {
      record_metrics_snapshot("latest", "checkpoint");
    }
  }

  if (config_.crash_after_batches > 0 &&
      progress_.batches_inserted >= config_.crash_after_batches) {
    (void)db_.sync();  // the harness crashes after N *durable* batches
    return Status(ErrorCode::kDataLoss,
                  "injected crash after " +
                      std::to_string(progress_.batches_inserted) +
                      " batches (fault harness)");
  }
  return Status::success();
}

Status TestSuite::prepare_plan() {
  if (plan_ready_) return Status::success();
  plan_destinations_ = selected_destinations();
  plan_remaining_.assign(plan_destinations_.size(), config_.iterations);
  plan_use_checkpoints_.assign(plan_destinations_.size(), false);
  plan_cursor_ = 0;

  // Resume planning.  Destinations with checkpoint history skip exactly
  // the recorded (destination, iteration) units, restoring the clock and
  // breaker state each unit left behind; databases from before the
  // checkpoint ledger fall back to the count-based top-up.
  if (config_.resume) {
    const docdb::Collection* checkpoints =
        db_.find_collection(kCampaignCheckpoints);
    for (std::size_t i = 0; i < plan_destinations_.size(); ++i) {
      if (checkpoints != nullptr) {
        util::JsonObject query;
        query.set("server_id", Value(plan_destinations_[i].server_id));
        Result<Filter> by_server = Filter::compile(Value(std::move(query)));
        if (by_server.ok() && checkpoints->count(by_server.value()) > 0) {
          plan_use_checkpoints_[i] = true;
          continue;
        }
      }
      const auto done = completed_iterations(plan_destinations_[i].server_id);
      plan_remaining_[i] = std::max(
          0, config_.iterations -
                 static_cast<int>(std::min<std::size_t>(done, INT_MAX)));
    }
  }
  plan_ready_ = true;
  return Status::success();
}

std::size_t TestSuite::planned_units() const {
  return plan_destinations_.size() *
         static_cast<std::size_t>(std::max(config_.iterations, 0));
}

Result<TestSuite::StepOutcome> TestSuite::step(bool shed_bandwidth) {
  if (!plan_ready_) {
    const Status planned = prepare_plan();
    if (!planned.ok()) return planned.error();
  }
  const std::size_t dest_count = plan_destinations_.size();
  const std::size_t total = planned_units();
  // The cursor walks the unit grid iteration-major — the paper's loop
  // order (every destination once per iteration).  Count-skipped resume
  // units consume cursor positions without surfacing as steps.
  while (plan_cursor_ < total) {
    const std::size_t cursor = plan_cursor_++;
    const int iteration = static_cast<int>(cursor / dest_count);
    const std::size_t destination_index = cursor % dest_count;
    const Destination& destination = plan_destinations_[destination_index];
    if (config_.resume) {
      if (plan_use_checkpoints_[destination_index]) {
        const Result<Document> doc =
            db_.collection(kCampaignCheckpoints)
                .find_by_id(
                    checkpoint_doc_id(destination.server_id, iteration));
        if (doc.ok()) {
          const Result<CampaignCheckpoint> checkpoint =
              parse_checkpoint_document(doc.value());
          if (checkpoint.ok()) {
            // Fast-forward through the finished unit: same clock
            // reading, same breaker state, zero re-measurement.
            host_.clock().advance_to(checkpoint.value().clock_end);
            breaker_for(destination.server_id)
                .restore(checkpoint.value().breaker_failures,
                         checkpoint.value().breaker_open,
                         checkpoint.value().breaker_opened_at);
            if (!checkpoint.value().path_cache.is_null()) {
              const Status restored = host_.control_plane().restore(
                  checkpoint.value().path_cache,
                  checkpoint.value().clock_end);
              if (!restored.ok()) {
                util::Log::warn("path-cache restore failed: " +
                                restored.error().message);
              }
            }
            ++progress_.units_skipped;
            metrics_.units_skipped->add();
            return StepOutcome::kSkippedResume;
          }
        }
        // Missing or corrupt checkpoint: fall through and re-measure.
      } else if (iteration >= plan_remaining_[destination_index]) {
        continue;  // count-based top-up: this unit is already stored
      }
    }
    const Status unit = run_unit(destination, iteration, shed_bandwidth);
    if (!unit.ok()) return unit.error();
    return StepOutcome::kRan;
  }
  return StepOutcome::kDone;
}

Status TestSuite::run() {
  const Status begun = begin();
  if (!begun.ok()) return begun;
  obs::ProgressReporter reporter(
      util::sim_seconds(config_.progress_report_interval_s));
  std::size_t units_done = 0;
  const std::size_t units_total = planned_units();

  while (true) {
    const Result<StepOutcome> outcome = step();
    if (!outcome.ok()) return Status(outcome.error());
    if (outcome.value() == StepOutcome::kDone) break;
    if (outcome.value() != StepOutcome::kRan) continue;
    ++units_done;
    reporter.tick(host_.clock().now(), [&] {
      return util::format(
          "campaign progress units=%zu/%zu path_tests=%zu failures=%zu "
          "retries=%zu breaker_skips=%zu clock_s=%.0f",
          units_done, units_total, progress_.path_tests_run,
          progress_.errors.total(), progress_.retry.retries,
          progress_.breaker_skips,
          util::to_seconds(host_.clock().now()));
    });
  }
  return finish();
}

Status TestSuite::begin() {
  // The set-up's writes (server registry, indexes, path snapshots) share
  // one durability wait: the caller's when it defers this database's
  // waits itself, else this call's.
  const bool caller_waits = docdb::DeferredSync::defers(db_);
  const docdb::DeferredSync setup_writes(db_);
  Status init = initialize();
  if (!init.ok()) return init;
  if (!config_.skip_collection) {
    const Status collected = collect_paths();
    if (!collected.ok()) return collected;
  }
  const Status planned = prepare_plan();
  if (!planned.ok()) return planned;
  return caller_waits ? Status::success() : db_.sync();
}

Status TestSuite::finish() {
  const docdb::DeferredSync final_writes(db_);
  if (config_.metrics_snapshots) {
    record_metrics_snapshot("final", "final");
  }
  // Also waits for the last unit's writes (run_unit leaves them to the
  // next wait).  A failure is a storage fault, as in run_unit: the
  // campaign itself completed.
  if (const Status durable = db_.sync(); !durable.ok()) {
    util::Log::error("final campaign writes not durable: " +
                     durable.error().message);
    progress_.errors.record(FaultKind::kStorage);
  }
  return Status::success();
}

}  // namespace upin::measure
