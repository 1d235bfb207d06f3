#include "fleet/fleet.hpp"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "apps/host.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace upin::fleet {

using measure::TestSuite;
using util::Result;
using util::Status;

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Units a worker runs per claim before it gives the tenant back.
constexpr std::size_t kUnitsPerClaim = 4;

[[nodiscard]] obs::Registry& fleet_registry(const FleetConfig& config) {
  return config.metrics != nullptr ? *config.metrics : obs::Registry::global();
}

[[nodiscard]] std::size_t degrade_threshold(const FleetConfig& config,
                                            const CampaignSpec& spec) {
  if (config.error_budget == 0) return SIZE_MAX;
  const std::size_t divisor = spec.priority <= 0 ? 4 : 2;
  return std::max<std::size_t>(1, config.error_budget / divisor);
}

/// One tenant's full machinery.  While the fleet runs, `in_flight` and
/// `finished` are read and written only under the scheduler mutex; the
/// rest is owned by whichever worker holds `in_flight` (at most one at a
/// time), and `units_run` is read by a claiming worker only while no
/// worker holds the tenant.
struct Tenant {
  CampaignSpec spec;
  std::uint64_t seed = 0;
  std::string shard_path;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<docdb::Database> db;
  std::unique_ptr<apps::ScionHost> host;
  std::unique_ptr<obs::SpanTracer> tracer;
  std::unique_ptr<TestSuite> suite;

  bool in_flight = false;
  bool finished = false;

  // Health ladder (worker-owned while in flight).
  TenantState state = TenantState::kHealthy;
  Status failure = Status::success();
  std::size_t error_score = 0;
  std::size_t watchdog_trips = 0;
  std::size_t units_run = 0;
  std::size_t last_errors = 0;
  std::size_t last_breaker_trips = 0;
  std::size_t last_probes_shed = 0;

  // Labeled fleet metrics (fleet registry, NOT the tenant registry — the
  // tenant registry must stay a pure function of the tenant alone).
  obs::Counter* m_units = nullptr;
  obs::Counter* m_resumed = nullptr;
  obs::Counter* m_shed = nullptr;
  obs::Counter* m_watchdog = nullptr;
  obs::Counter* m_quarantines = nullptr;
  obs::Gauge* m_state = nullptr;
};

void set_state(Tenant& tenant, TenantState state) {
  tenant.state = state;
  tenant.m_state->set(static_cast<std::int64_t>(state));
}

/// Build one tenant VM: split seed, private registry, own host/clock on
/// the (possibly overridden) network, own docdb shard, own suite.  A
/// failed shard open marks the tenant Failed — it never schedules, and
/// nobody else notices.
[[nodiscard]] std::unique_ptr<Tenant> build_tenant(
    const scion::ScionlabEnv& env, const FleetConfig& config,
    const CampaignSpec& spec, const std::string& shard_path) {
  auto tenant = std::make_unique<Tenant>();
  tenant->spec = spec;
  tenant->seed = campaign_seed(config.seed, spec.campaign_id);
  tenant->shard_path = shard_path;
  tenant->registry = std::make_unique<obs::Registry>();

  const std::string label = std::to_string(spec.campaign_id);
  obs::Registry& fleet_reg = fleet_registry(config);
  tenant->m_units = &fleet_reg.counter("upin_fleet_units_total", label);
  tenant->m_resumed =
      &fleet_reg.counter("upin_fleet_units_resumed_total", label);
  tenant->m_shed = &fleet_reg.counter("upin_fleet_probes_shed_total", label);
  tenant->m_watchdog =
      &fleet_reg.counter("upin_fleet_watchdog_trips_total", label);
  tenant->m_quarantines =
      &fleet_reg.counter("upin_fleet_quarantines_total", label);
  tenant->m_state = &fleet_reg.gauge("upin_fleet_state", label);
  tenant->m_state->set(0);

  if (shard_path.empty()) {
    tenant->db = std::make_unique<docdb::Database>();
  } else {
    auto opened = docdb::Database::open(shard_path, spec.storage);
    if (!opened.ok()) {
      set_state(*tenant, TenantState::kFailed);
      tenant->failure = Status(opened.error());
      tenant->finished = true;
      return tenant;
    }
    tenant->db = std::move(opened).value();
  }

  tenant->host = std::make_unique<apps::ScionHost>(
      env, tenant->seed, env.user_as, "10.0.8.1",
      spec.net_config.value_or(config.net_config));

  measure::TestSuiteConfig suite = config.suite;
  if (!spec.server_ids.empty()) suite.server_ids = spec.server_ids;
  if (spec.iterations > 0) suite.iterations = spec.iterations;
  if (spec.crash_after_batches > 0) {
    suite.crash_after_batches = spec.crash_after_batches;
  }
  if (config.resume) {
    suite.resume = true;
    suite.skip_collection = true;  // paths live in the shard already
  }
  suite.registry = tenant->registry.get();
  suite.tracer = nullptr;
  if (config.tracer != nullptr) {
    tenant->tracer =
        std::make_unique<obs::SpanTracer>("campaign " + label);
    suite.tracer = tenant->tracer.get();
  }
  tenant->suite = std::make_unique<TestSuite>(*tenant->host, *tenant->db,
                                              std::move(suite));
  return tenant;
}

/// Contain a set-up error: the tenant fails with `status`, the fleet does
/// not.  A success changes nothing.
void fail_unless_ok(Tenant& tenant, const Status& status) {
  if (status.ok()) return;
  set_state(tenant, TenantState::kFailed);
  tenant.failure = status;
  tenant.finished = true;
}

/// begin() the tenant's campaign (initialize + collect + plan).
void begin_tenant(Tenant& tenant) {
  if (!tenant.finished) fail_unless_ok(tenant, tenant.suite->begin());
}

/// Execute one scheduling step of the tenant and apply the health
/// ladder.  Returns true while the tenant has units left; false once
/// it reached a terminal state (done, quarantined, or failed).  Every
/// input to the ladder — fault deltas, breaker trips, the virtual-time
/// watchdog — is a deterministic function of the tenant's own virtual
/// timeline, so the tenant's terminal state is identical across runs,
/// thread counts, and co-tenants.
[[nodiscard]] bool step_tenant(const FleetConfig& config, Tenant& tenant) {
  const bool shed =
      config.shed_enabled && tenant.state == TenantState::kDegraded;
  const util::SimTime before = tenant.host->clock().now();
  const Result<TestSuite::StepOutcome> outcome = tenant.suite->step(shed);
  if (!outcome.ok()) {
    // Hard campaign error (e.g. the kDataLoss crash harness): contain
    // it.  The tenant is Failed; its shard keeps whatever committed.
    set_state(tenant, TenantState::kFailed);
    tenant.failure = Status(outcome.error());
    return false;
  }
  if (outcome.value() == TestSuite::StepOutcome::kDone) {
    const Status finished = tenant.suite->finish();
    if (!finished.ok()) {
      set_state(tenant, TenantState::kFailed);
      tenant.failure = finished;
    }
    return false;
  }
  if (outcome.value() == TestSuite::StepOutcome::kSkippedResume) {
    tenant.m_resumed->add();
    return true;  // fast-forwarded checkpoints don't touch the ladder
  }

  ++tenant.units_run;
  tenant.m_units->add();

  // Stalled-tenant watchdog: a unit that burned more virtual time than
  // the deadline (retry backoff against dark servers is the classic
  // cause) counts against the error budget.
  if (config.watchdog_deadline_s > 0.0 &&
      util::to_seconds(tenant.host->clock().now() - before) >
          config.watchdog_deadline_s) {
    ++tenant.watchdog_trips;
    ++tenant.error_score;
    tenant.m_watchdog->add();
  }

  const measure::TestSuiteProgress& p = tenant.suite->progress();
  const std::size_t errors = p.errors.total();
  const std::size_t trips = p.breaker_trips;
  tenant.error_score += (errors - tenant.last_errors) +
                        (trips - tenant.last_breaker_trips);
  tenant.last_errors = errors;
  tenant.last_breaker_trips = trips;
  if (p.probes_shed > tenant.last_probes_shed) {
    tenant.m_shed->add(p.probes_shed - tenant.last_probes_shed);
    tenant.last_probes_shed = p.probes_shed;
  }

  if (config.error_budget > 0) {
    if (tenant.error_score >= config.error_budget) {
      set_state(tenant, TenantState::kQuarantined);
      tenant.m_quarantines->add();
      util::Log::warn(
          "fleet: campaign " + std::to_string(tenant.spec.campaign_id) +
          " quarantined (error score " + std::to_string(tenant.error_score) +
          " >= budget " + std::to_string(config.error_budget) + ")");
      return false;
    }
    if (tenant.state == TenantState::kHealthy &&
        tenant.error_score >= degrade_threshold(config, tenant.spec)) {
      set_state(tenant, TenantState::kDegraded);
      util::Log::info(
          "fleet: campaign " + std::to_string(tenant.spec.campaign_id) +
          " degraded to ping-only (error score " +
          std::to_string(tenant.error_score) + ")");
    }
  }
  return true;
}

[[nodiscard]] CampaignStatus make_status(const Tenant& tenant) {
  CampaignStatus status;
  status.campaign_id = tenant.spec.campaign_id;
  status.state = tenant.state;
  status.seed = tenant.seed;
  status.shard_path = tenant.shard_path;
  status.units_run = tenant.units_run;
  status.error_score = tenant.error_score;
  status.watchdog_trips = tenant.watchdog_trips;
  if (tenant.suite != nullptr) {
    status.progress = tenant.suite->progress();
    status.units_resumed = status.progress.units_skipped;
  }
  status.failure = tenant.failure;
  return status;
}

[[nodiscard]] std::size_t resolve_workers(std::size_t configured,
                                          std::size_t tenants) {
  std::size_t threads = configured;
  if (threads == 0) {
    threads = std::max<unsigned>(1, std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(1, std::min(threads, tenants));
}

}  // namespace

std::string_view to_string(TenantState state) noexcept {
  switch (state) {
    case TenantState::kHealthy: return "healthy";
    case TenantState::kDegraded: return "degraded";
    case TenantState::kQuarantined: return "quarantined";
    case TenantState::kFailed: return "failed";
  }
  return "unknown";
}

std::uint64_t campaign_seed(std::uint64_t fleet_seed,
                            int campaign_id) noexcept {
  // Two splitmix64 rounds over (fleet_seed, id): adjacent campaign ids
  // land in decorrelated streams, and the pair is stable across runs —
  // a tenant's solo rerun draws the identical probe sequence.
  std::uint64_t state =
      fleet_seed + kGolden * (static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(campaign_id)) +
                             1);
  const std::uint64_t first = util::splitmix64(state);
  return first ^ util::splitmix64(state);
}

std::string shard_filename(int campaign_id) {
  return "campaign_" + std::to_string(campaign_id) + ".jsonl";
}

FleetScheduler::FleetScheduler(const scion::ScionlabEnv& env,
                               FleetConfig config)
    : env_(env), config_(std::move(config)) {}

Result<FleetResult> FleetScheduler::run(
    const std::vector<CampaignSpec>& specs) {
  if (specs.empty()) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "fleet: no campaigns"};
  }
  std::unordered_set<int> ids;
  for (const CampaignSpec& spec : specs) {
    if (!ids.insert(spec.campaign_id).second) {
      return util::Error{util::ErrorCode::kInvalidArgument,
                         "fleet: duplicate campaign_id " +
                             std::to_string(spec.campaign_id)};
    }
  }
  if (!config_.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.data_dir, ec);
    if (ec) {
      return util::Error{util::ErrorCode::kDataLoss,
                         "fleet: cannot create data_dir " + config_.data_dir +
                             ": " + ec.message()};
    }
  }

  const util::Stopwatch wall;

  // Build + begin every tenant up front (cheap phases; the measurement
  // loops are what the workers multiplex).  Each begin() only enqueues
  // its set-up writes; the waits follow in spec order, so the shards'
  // writer threads commit their set-up side by side instead of one
  // fsync at a time.
  std::vector<std::unique_ptr<Tenant>> tenants;
  tenants.reserve(specs.size());
  for (const CampaignSpec& spec : specs) {
    const std::string shard =
        config_.data_dir.empty()
            ? std::string{}
            : (std::filesystem::path(config_.data_dir) /
               shard_filename(spec.campaign_id))
                  .string();
    tenants.push_back(build_tenant(env_, config_, spec, shard));
    Tenant& tenant = *tenants.back();
    if (tenant.finished) continue;
    const docdb::DeferredSync setup_writes(*tenant.db);
    begin_tenant(tenant);
  }
  for (const auto& tenant : tenants) {
    if (!tenant->finished) fail_unless_ok(*tenant, tenant->db->sync());
  }

  // Workers claim the unfinished, unclaimed tenant with the fewest units
  // run (ties go to spec order), run up to kUnitsPerClaim units of it on
  // its own virtual timeline, and give it back.  A tenant is held by at
  // most one worker at a time, so campaigns stay sequential internally
  // while the fleet interleaves across tenants.  All claim state lives
  // under `mutex`; every release wakes the waiting workers.
  const std::size_t n = tenants.size();
  std::mutex mutex;
  std::condition_variable released;
  std::size_t finished = 0;
  for (const auto& tenant : tenants) {
    if (tenant->finished) ++finished;
  }
  auto least_advanced = [&]() -> Tenant* {
    Tenant* best = nullptr;
    for (const auto& tenant : tenants) {
      if (tenant->finished || tenant->in_flight) continue;
      if (best == nullptr || tenant->units_run < best->units_run) {
        best = tenant.get();
      }
    }
    return best;
  };
  auto work = [&] {
    for (;;) {
      Tenant* claimed = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        released.wait(lock, [&] {
          return finished == n || (claimed = least_advanced()) != nullptr;
        });
        if (claimed == nullptr) return;
        claimed->in_flight = true;
      }
      bool alive = true;
      for (std::size_t i = 0; i < kUnitsPerClaim && alive; ++i) {
        alive = step_tenant(config_, *claimed);
      }
      {
        const std::lock_guard<std::mutex> lock(mutex);
        claimed->in_flight = false;
        if (!alive) {
          claimed->finished = true;
          ++finished;
        }
      }
      released.notify_all();
    }
  };
  std::vector<std::thread> workers(resolve_workers(config_.threads, n));
  for (std::thread& worker : workers) worker = std::thread(work);
  for (std::thread& worker : workers) worker.join();

  // Deterministic tracer merge: campaign order, not completion order.
  if (config_.tracer != nullptr) {
    for (const auto& tenant : tenants) {
      if (tenant->tracer != nullptr) {
        config_.tracer->adopt(std::move(*tenant->tracer));
      }
    }
  }

  FleetResult result;
  result.campaigns.reserve(n);
  for (const auto& tenant : tenants) {
    result.campaigns.push_back(make_status(*tenant));
    switch (tenant->state) {
      case TenantState::kDegraded: ++result.degraded; break;
      case TenantState::kQuarantined: ++result.quarantined; break;
      case TenantState::kFailed: ++result.failed; break;
      case TenantState::kHealthy: break;
    }
  }
  result.wall_seconds = wall.seconds();
  return result;
}

Result<CampaignStatus> run_campaign_solo(const scion::ScionlabEnv& env,
                                         const FleetConfig& config,
                                         const CampaignSpec& spec,
                                         const std::string& shard_path) {
  const std::unique_ptr<Tenant> tenant =
      build_tenant(env, config, spec, shard_path);
  begin_tenant(*tenant);
  if (!tenant->finished) {
    // The identical per-unit loop the fleet workers run — including the
    // degradation ladder — minus the scheduler.  Blast-radius-zero is
    // defined against exactly this execution.
    while (step_tenant(config, *tenant)) {
    }
  }
  return make_status(*tenant);
}

}  // namespace upin::fleet
