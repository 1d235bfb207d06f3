// testsuite.hpp — the measurement campaign engine (paper §5).
//
// Reimplements the paper's three-component suite as one engine:
//
//   * test_suite.sh      -> TestSuiteConfig {iterations, skip, some_only}
//                           + TestSuite::run()
//   * collect_paths.py   -> TestSuite::collect_paths(): showpaths per
//                           destination, keep paths with hop count <=
//                           min + 1, insert into `paths`, delete vanished
//   * run_test.py        -> TestSuite::step(), looped by run(): three
//                           nested loops (iterations x destinations x
//                           paths), one (destination, iteration) unit per
//                           step; per path one ping (30 x 0.1 s) and four
//                           bandwidth numbers ({64 B, MTU} x {up, down}),
//                           then one *batched* insert per destination
//                           (§4.2.2's fault-tolerance trade-off)
//
// Faults (unreachable server, failed command) are handled by a
// first-class recovery policy (§4.1.2 upgraded): failed operations retry
// with exponential backoff in virtual time, a per-destination circuit
// breaker stops hammering dark servers, every failure lands in a
// four-way taxonomy, and completed (destination, iteration) units are
// checkpointed through the journal so a killed campaign resumes without
// re-measuring finished work — and reproduces the identical document set.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "apps/host.hpp"
#include "docdb/database.hpp"
#include "measure/retry.hpp"
#include "measure/schema.hpp"
#include "scion/trust.hpp"

namespace upin::obs {
class Counter;
class Registry;
class SpanTracer;
}  // namespace upin::obs

namespace upin::measure {

/// CLI-equivalent configuration (paper §5.1).
struct TestSuiteConfig {
  int iterations = 1;            ///< <iterations>
  bool skip_collection = false;  ///< --skip
  bool some_only = false;        ///< --some_only (first destination only)
  /// Resume semantics: treat `iterations` as the *target* number of
  /// samples per path and only run the missing remainder, so a campaign
  /// interrupted by a crash (losing at most its in-flight batch, §4.2.2)
  /// can be topped up instead of rerun.
  bool resume = false;
  /// Restrict the run to these server ids (paper §6 uses the featured 5).
  std::optional<std::vector<int>> server_ids;

  std::size_t showpaths_max = 40;  ///< scion showpaths -m 40
  std::size_t hop_slack = 1;       ///< keep hop_count <= min + slack

  std::size_t ping_count = 30;
  double ping_interval_s = 0.1;

  double bw_duration_s = 3.0;
  double bw_target_mbps = 12.0;
  double small_packet_bytes = 64.0;

  /// Virtual-time pause between consecutive path tests (scheduling gap).
  double inter_test_gap_s = 0.5;

  /// Recovery policy for failed measurement operations.
  RetryPolicy retry;
  /// Per-destination circuit breaker (consecutive post-retry failures
  /// open it; cooldown in virtual time re-probes).
  CircuitBreakerPolicy breaker;
  /// Record a campaign_checkpoints document after every committed
  /// (destination, iteration) unit.  `resume` uses them to skip finished
  /// units exactly (clock and breaker state restored bit-for-bit).
  bool checkpoints = true;
  /// Fault-injection harness: abort the campaign (as a crash would) after
  /// this many committed batches.  0 = never.  Tests use this to exercise
  /// kill-then-resume; the aborted run reports kDataLoss.
  std::size_t crash_after_batches = 0;

  /// Optional virtual-clock span tracer.  When set, the suite records the
  /// campaign -> unit -> path -> probe timeline into it; when null (the
  /// default) the instrumentation is free.
  obs::SpanTracer* tracer = nullptr;
  /// Metrics sink.  Null (the default) instruments the process-wide
  /// registry.  The fleet scheduler gives every tenant campaign its own
  /// registry so (a) per-tenant rates are separable and (b) the
  /// `campaign_metrics` snapshots a campaign journals are a pure function
  /// of that campaign alone — the property behind the isolation gate's
  /// "in-fleet journal bytes == solo journal bytes".
  obs::Registry* registry = nullptr;
  /// Refresh the `campaign_metrics` "latest" snapshot at every checkpoint
  /// (the "final" snapshot at campaign end is always written).
  bool metrics_snapshots = true;
  /// Virtual-time cadence of the structured progress log lines.
  double progress_report_interval_s = 600.0;
};

/// Run counters for reporting and tests.
struct TestSuiteProgress {
  std::size_t destinations_visited = 0;
  std::size_t paths_collected = 0;
  std::size_t paths_deleted = 0;
  std::size_t path_tests_run = 0;
  std::size_t ping_failures = 0;
  std::size_t bwtest_failures = 0;
  std::size_t stats_inserted = 0;
  std::size_t batches_inserted = 0;
  std::size_t batches_rejected = 0;

  /// Every post-retry failure, classified (§4.1.2 fault classes).
  FaultTaxonomy errors;
  /// Backoff re-attempts and budget cutoffs across all operations.
  RetryStats retry;
  std::size_t breaker_trips = 0;  ///< circuit breakers opened
  std::size_t breaker_skips = 0;  ///< path tests skipped while open
  std::size_t units_skipped = 0;  ///< checkpointed units skipped on resume
  std::size_t checkpoints_recorded = 0;
  /// Bandwidth probes skipped by fleet load shedding (degraded tenants
  /// run ping-only units; two bw probes shed per path test).
  std::size_t probes_shed = 0;

  bool operator==(const TestSuiteProgress&) const = default;
};

/// The campaign engine.  Owns neither the host nor the database.
class TestSuite {
 public:
  TestSuite(apps::ScionHost& host, docdb::Database& db,
            TestSuiteConfig config);

  /// Populate `availableServers` from the testbed registry (idempotent)
  /// and create the indexes the selection layer expects.
  util::Status initialize();

  /// Phase 1: discover paths for every (selected) destination.
  util::Status collect_paths();

  /// The whole campaign, i.e. `./test_suite.sh N [--skip]`: begin(), a
  /// step() loop that logs progress lines, finish().
  util::Status run();

  // ---- unit-stepped execution (fleet scheduling) ---------------------
  //
  // A multi-tenant scheduler cannot hand a whole campaign to run(): it
  // interleaves *units* of N campaigns for fairness.  The stepping API
  // exposes the identical execution path at (destination, iteration)
  // granularity — run() itself is implemented as a step() loop, so a
  // stepped campaign journals byte-identical output to a solo run().

  /// What one step() call did.
  enum class StepOutcome {
    kRan,           ///< executed the next unit (measure + store + checkpoint)
    kSkippedResume, ///< fast-forwarded a checkpointed unit (resume)
    kDone,          ///< the plan is exhausted; nothing happened
  };

  /// Prepare stepping: initialize(), collect_paths() (unless skipped) and
  /// resume planning.  Equivalent to the preamble of run().  Its writes
  /// share one durability wait and are on disk when it returns.
  [[nodiscard]] util::Status begin();

  /// Units in the plan: destinations x iterations (including units that
  /// resume will fast-forward).  Valid after begin().
  [[nodiscard]] std::size_t planned_units() const;

  /// Execute (or fast-forward) the next planned unit.  Durability is
  /// pipelined one unit deep: a unit first waits for the previous unit's
  /// writes, then stores its batch, checkpoint and metrics snapshot
  /// without waiting (docdb::DeferredSync); the next unit or finish()
  /// waits for them.  A crash loses at most one batch.  With
  /// `shed_bandwidth` the unit runs ping-only — the fleet's degraded mode
  /// for tenants burning their error budget: the cheap latency/loss
  /// probes keep flowing, the expensive bandwidth probes are shed.
  [[nodiscard]] util::Result<StepOutcome> step(bool shed_bandwidth = false);

  /// Record the "final" metrics snapshot — the epilogue of run() — and
  /// wait until every write of the campaign is durable (a failure is
  /// recorded as a storage fault).
  [[nodiscard]] util::Status finish();

  /// Sign each batch with a fresh one-time key certified by `trust`, and
  /// write through the database's guarded interface.
  void enable_signed_writes(scion::TrustStore& trust);

  /// Samples already stored for every path of `server_id` (the minimum
  /// across its paths) — what `resume` subtracts from `iterations`.
  [[nodiscard]] std::size_t completed_iterations(int server_id) const;

  [[nodiscard]] const TestSuiteProgress& progress() const noexcept {
    return progress_;
  }

 private:
  struct Destination {
    int server_id = 0;
    scion::SnetAddress address;
  };
  /// Cached counter handles into the configured registry, resolved once
  /// per suite so the hot path is a lock-free add (the registry's
  /// get-or-create mutex is paid only at construction).
  struct Metrics {
    obs::Counter* pings = nullptr;
    obs::Counter* ping_failures = nullptr;
    obs::Counter* bwtests = nullptr;
    obs::Counter* bwtest_failures = nullptr;
    obs::Counter* path_tests = nullptr;
    obs::Counter* breaker_skips = nullptr;
    obs::Counter* stats_inserted = nullptr;
    obs::Counter* batches_inserted = nullptr;
    obs::Counter* batches_rejected = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* units_skipped = nullptr;
    obs::Counter* probes_shed = nullptr;
  };
  [[nodiscard]] obs::Registry& registry() const;
  [[nodiscard]] std::vector<Destination> selected_destinations() const;
  [[nodiscard]] util::Status store_batch(std::vector<docdb::Document> docs);
  /// store_batch's insert when signed writes are on: one certified
  /// one-time key per batch, through the database's write guard.
  [[nodiscard]] util::Result<std::vector<std::string>> signed_insert(
      std::vector<docdb::Document> docs);

  /// Resume planning for step(): destination list, per-destination
  /// remaining-iteration counts, checkpoint availability.  Idempotent.
  [[nodiscard]] util::Status prepare_plan();

  /// Run every path test of one (destination, iteration) unit, applying
  /// retry / breaker policy, and commit the batch plus its checkpoint.
  /// `shed_bandwidth` skips the two bwtest probes (fleet degraded mode).
  [[nodiscard]] util::Status run_unit(const Destination& destination,
                                      int iteration, bool shed_bandwidth);
  /// Store a registry snapshot under `id` in campaign_metrics.
  void record_metrics_snapshot(const std::string& id,
                               const std::string& stage);
  /// Record a post-retry operation failure for `destination`.
  void note_failure(int server_id, const util::Error& error);
  [[nodiscard]] CircuitBreaker& breaker_for(int server_id);

  apps::ScionHost& host_;
  docdb::Database& db_;
  TestSuiteConfig config_;
  /// `scion-bwtestclient -cs` specs of the two bandwidth probes (64 B and
  /// MTU packets), derived from config_ once.
  std::string bw_small_spec_;
  std::string bw_mtu_spec_;
  TestSuiteProgress progress_;
  Metrics metrics_;
  scion::TrustStore* trust_ = nullptr;
  std::uint64_t batch_counter_ = 0;
  std::map<int, CircuitBreaker> breakers_;

  // Stepping plan (prepare_plan / step state).
  bool plan_ready_ = false;
  std::vector<Destination> plan_destinations_;
  std::vector<int> plan_remaining_;  // per destination (resume top-up count)
  std::vector<bool> plan_use_checkpoints_;
  std::size_t plan_cursor_ = 0;  // iteration-major over the unit grid
};

}  // namespace upin::measure
