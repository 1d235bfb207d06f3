// fleet.hpp — multi-tenant campaign scheduling with fault isolation.
//
// The paper runs ONE measurement campaign per deployment (§5: a single
// test_suite.sh against the author's destination set).  Operating the
// reproduction as a service means multiplexing N independent user
// campaigns — distinct destination sets, policies and iteration targets —
// over one process, and the interesting engineering problem is the blast
// radius: a tenant whose servers are dark, whose storage is failing, or
// whose faults burn the retry budget must not slow down, corrupt, or
// even *perturb* anybody else's results.
//
// Isolation is by construction, not by policing:
//   * every campaign gets its own ScionHost (own virtual clock, own
//     control plane, own fault plan), so virtual time never leaks;
//   * its own docdb shard (`campaign_<id>.jsonl`), so journal bytes are
//     a pure function of that campaign;
//   * its own obs::Registry, so `campaign_metrics` snapshots contain
//     only its counters;
//   * its own RNG stream, split from the fleet seed by campaign id.
// Tenants share only the testbed's segment store
// (`ScionlabEnv::beaconing`), a read-only pure function of the topology.
// The invariant the chaos harness enforces: a campaign's shard bytes in
// a fleet run under somebody else's faults equal its solo-run bytes.
//
// Fairness and degradation are the scheduler's own machinery: a free
// worker claims the least-advanced unclaimed tenant for a few units at a
// time, a virtual-time watchdog per unit, an error budget driving a
// Healthy -> Degraded (bandwidth probes shed) -> Quarantined ladder, and
// per-tenant failure containment (a kDataLoss crash marks the tenant
// Failed; the fleet completes).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "docdb/database.hpp"
#include "measure/testsuite.hpp"
#include "scion/scionlab.hpp"
#include "simnet/network.hpp"

namespace upin::fleet {

/// One tenant campaign: what the user asked to measure, and how early
/// the degradation ladder sheds it.
struct CampaignSpec {
  int campaign_id = 0;
  /// Destination servers (empty = the fleet suite config's selection).
  std::vector<int> server_ids;
  /// Target samples per path (0 = the fleet suite config's iterations).
  int iterations = 0;
  /// Shedding priority; it only sets the degrade threshold, not the
  /// claim order.  Priority 0 tenants are shed earliest (their degrade
  /// threshold is budget/4 instead of budget/2).
  int priority = 1;
  /// Per-tenant network override (fault plans, error probabilities).
  /// Unset = the fleet-wide network config.  Each campaign compiles its
  /// own simnet::Network either way — fault leakage between tenants is
  /// impossible by construction.
  std::optional<simnet::NetworkConfig> net_config;
  /// Per-tenant shard storage options (FaultVfs injection point for the
  /// chaos harness).  Only honored when the fleet has a data_dir.
  docdb::DatabaseOptions storage;
  /// Fault harness passthrough: abort this tenant (kDataLoss) after N
  /// committed batches.  0 = never.
  std::size_t crash_after_batches = 0;
};

/// Fleet-wide knobs.
struct FleetConfig {
  std::uint64_t seed = 42;  ///< fleet seed; tenants get split substreams
  /// Worker threads multiplexing the tenants (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Error budget per tenant: quarantine when the accumulated error
  /// score (post-retry failures + breaker trips + watchdog trips)
  /// reaches this.  0 disables the ladder entirely.
  std::size_t error_budget = 8;
  /// Virtual-time deadline per (destination, iteration) unit.  A unit
  /// burning more than this trips the stalled-tenant watchdog (retry
  /// backoff on dark servers is the usual cause).  0 disables.
  double watchdog_deadline_s = 900.0;
  /// Degrade tenants that burn half their budget (quarter for priority
  /// 0) to ping-only units — shed the expensive bandwidth probes first.
  bool shed_enabled = true;
  /// Fleet-wide network model; tenants may override per spec.
  simnet::NetworkConfig net_config;
  /// Shard directory.  Empty = in-memory shards (no journal files, and
  /// CampaignSpec::storage is ignored).
  std::string data_dir;
  /// Resume every tenant from its shard's campaign checkpoints.
  bool resume = false;
  /// Base per-campaign suite config (iterations / server_ids / registry /
  /// tracer fields are overridden per tenant).
  measure::TestSuiteConfig suite;
  /// Fleet-level metrics sink for the labeled `upin_fleet_*` series
  /// (null = the process-wide registry).  Kept out of the per-tenant
  /// registries so tenant snapshots stay pure.
  obs::Registry* metrics = nullptr;
  /// Optional fleet tracer: tenant span trees are grafted under it in
  /// campaign order (deterministic regardless of worker scheduling).
  obs::SpanTracer* tracer = nullptr;
};

/// The degradation ladder.  Transitions are driven purely by the
/// tenant's own virtual-time-deterministic unit deltas, so a tenant's
/// terminal state is identical across runs and thread schedules.
enum class TenantState {
  kHealthy,      ///< full units (ping + both bandwidth probes)
  kDegraded,     ///< ping-only units (bandwidth probes shed)
  kQuarantined,  ///< error budget exhausted: stopped, never claimed again
  kFailed,       ///< hard campaign error (e.g. kDataLoss) — contained
};

[[nodiscard]] std::string_view to_string(TenantState state) noexcept;

/// Per-tenant outcome.
struct CampaignStatus {
  int campaign_id = 0;
  TenantState state = TenantState::kHealthy;
  std::uint64_t seed = 0;        ///< split substream actually used
  std::string shard_path;        ///< empty for in-memory shards
  std::size_t units_run = 0;     ///< units executed (incl. shed units)
  std::size_t units_resumed = 0; ///< checkpoint fast-forwards
  std::size_t error_score = 0;   ///< failures + breaker trips + watchdog
  std::size_t watchdog_trips = 0;
  /// Always 0: the scheduler has no lanes to reject on.  Kept only
  /// because bench/e2e/fleet_mixed.cpp reads it.
  std::size_t backpressure_rejections = 0;
  measure::TestSuiteProgress progress;
  util::Status failure = util::Status::success();  ///< set when kFailed
};

struct FleetResult {
  std::vector<CampaignStatus> campaigns;  ///< in spec order
  std::size_t degraded = 0;
  std::size_t quarantined = 0;
  std::size_t failed = 0;
  double wall_seconds = 0.0;
};

/// Tenant RNG stream: splitmix64 expansion of (fleet_seed, campaign_id).
/// Distinct ids give decorrelated streams; the same pair always yields
/// the same seed, so a tenant's solo rerun matches its in-fleet run.
[[nodiscard]] std::uint64_t campaign_seed(std::uint64_t fleet_seed,
                                          int campaign_id) noexcept;

/// Shard file name for a campaign within the fleet data_dir.
[[nodiscard]] std::string shard_filename(int campaign_id);

/// The scheduler.  One instance runs one fleet of campaigns to
/// completion; tenants that quarantine or fail are contained and the
/// fleet still returns a full per-tenant report.
class FleetScheduler {
 public:
  FleetScheduler(const scion::ScionlabEnv& env, FleetConfig config);

  /// Run every campaign.  Returns kInvalidArgument for an empty or
  /// duplicate-id spec list; individual tenant errors are contained in
  /// the per-campaign statuses, never propagated as a fleet error.
  [[nodiscard]] util::Result<FleetResult> run(
      const std::vector<CampaignSpec>& specs);

 private:
  const scion::ScionlabEnv& env_;
  FleetConfig config_;
};

/// Run ONE campaign exactly as the fleet would — same split seed, same
/// private registry, same degradation ladder, same shard layout — but
/// alone in the process.  The chaos harness compares these bytes to the
/// fleet shard bytes: equality is the blast-radius-zero gate.
/// `shard_path` empty = in-memory.
[[nodiscard]] util::Result<CampaignStatus> run_campaign_solo(
    const scion::ScionlabEnv& env, const FleetConfig& config,
    const CampaignSpec& spec, const std::string& shard_path = {});

}  // namespace upin::fleet
