// select_mix.cpp — the UPIN read path: one client sends
// PathSelector::select_with requests in a closed loop against a database
// a full 21-destination campaign populated during set-up.  Simnet is out
// of the timed region; docdb's planner and indexes, schema parsing and
// the strategies are in it.
//
// The request stream is drawn from the seed: the five registered
// strategies, all four objectives, 75 % restricted to a freshness window
// (the last 10 % of the timeline) and 25 % over the full history, 30 %
// with sovereignty exclusions or hard caps.  The traced run replays
// select_with as its five steps — find paths, find stats per path, parse,
// aggregate, create and rank — and requires the same ranking.
#include <set>

#include "apps/host.hpp"
#include "harness.hpp"
#include "measure/schema.hpp"
#include "obs/metrics.hpp"
#include "scion/path.hpp"
#include "scion/scionlab.hpp"
#include "select/selector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace upin::e2e {
namespace {

using select::PathSummary;
using select::Selection;
using util::Result;
using util::Value;

constexpr std::size_t kRequestPool = 20000;
constexpr std::size_t kWarmupRequests = 200;

/// The populated database and the testbed it describes.
struct Population {
  explicit Population(std::uint64_t seed)
      : env(scion::scionlab_topology()),
        host(env, seed, env.user_as, "10.0.8.1") {}

  scion::ScionlabEnv env;
  apps::ScionHost host;
  obs::Registry registry;
  docdb::Database db;
  std::int64_t window_start_ms = 0;  ///< freshness window: last 10 %
};

/// Every destination x 40 iterations, stepped to completion.  Selection
/// reads paths and paths_stats only, so the campaign skips its resume
/// ledger and metrics snapshots: with them the population would hold
/// ~490 MB of path-cache checkpoints nothing in the timed region touches.
std::unique_ptr<Population> populate(const Options& options,
                                     std::uint64_t seed, Report& report) {
  auto population = std::make_unique<Population>(seed);
  measure::TestSuiteConfig config;
  config.iterations = options.smoke ? 3 : 40;
  config.registry = &population->registry;
  config.checkpoints = false;
  config.metrics_snapshots = false;
  measure::TestSuite suite(population->host, population->db, config);
  util::Status status = suite.begin();
  while (status.ok()) {
    report.probe.tick();
    const Result<measure::TestSuite::StepOutcome> outcome = suite.step();
    if (!outcome.ok()) {
      status = util::Status(outcome.error());
    } else if (outcome.value() == measure::TestSuite::StepOutcome::kDone) {
      status = suite.finish();
      break;
    }
  }
  report.check(status.ok(), "population campaign failed");
  const docdb::Collection* stats =
      population->db.find_collection(measure::kPathsStats);
  report.check(stats != nullptr &&
                   stats->size() == suite.progress().stats_inserted,
               "population: stats_inserted != stored documents");
  population->window_start_ms = static_cast<std::int64_t>(
      0.9 * static_cast<double>(population->host.clock().now().count()) / 1e6);
  return population;
}

struct Request {
  std::string strategy;
  select::UserRequest user;
  double docs = 0.0;  ///< paths_stats documents the selection aggregates
};

/// paths_stats documents of `server_id` at or after `since_ms`.
std::size_t count_stats(const docdb::Database& db, int server_id,
                        std::optional<std::int64_t> since_ms) {
  util::JsonObject query;
  query.set("server_id", Value(server_id));
  if (since_ms.has_value()) {
    query.set("timestamp_ms", Value::object({{"$gte", Value(*since_ms)}}));
  }
  const Result<docdb::Filter> filter =
      docdb::Filter::compile(Value(std::move(query)));
  const docdb::Collection* stats = db.find_collection(measure::kPathsStats);
  return filter.ok() && stats != nullptr ? stats->count(filter.value()) : 0;
}

std::vector<Request> make_requests(const Population& population,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<std::string> strategies =
      select::StrategyRegistry::global().keys();
  std::set<std::string> country_set;
  std::set<std::uint16_t> isd_set;
  for (const scion::AsInfo& as : population.env.topology.ases()) {
    country_set.insert(as.country);
    isd_set.insert(as.ia.isd());
  }
  const std::vector<std::string> countries(country_set.begin(),
                                           country_set.end());
  const std::vector<std::uint16_t> isds(isd_set.begin(), isd_set.end());
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };

  const int servers = static_cast<int>(population.env.servers.size());
  std::map<std::pair<int, bool>, double> docs;
  for (int id = 1; id <= servers; ++id) {
    docs[{id, false}] =
        static_cast<double>(count_stats(population.db, id, std::nullopt));
    docs[{id, true}] = static_cast<double>(
        count_stats(population.db, id, population.window_start_ms));
  }

  std::vector<Request> requests(kRequestPool);
  for (Request& request : requests) {
    select::UserRequest& user = request.user;
    request.strategy = strategies[pick(strategies.size())];
    user.server_id = static_cast<int>(rng.uniform_int(1, servers));
    user.objective = static_cast<select::Objective>(rng.uniform_int(0, 3));
    user.bw_direction = rng.bernoulli(0.5) ? select::BwDirection::kDownstream
                                           : select::BwDirection::kUpstream;
    const bool windowed = rng.bernoulli(0.75);
    if (windowed) user.since_timestamp_ms = population.window_start_ms;
    if (rng.bernoulli(0.30)) {
      if (rng.bernoulli(0.5)) {
        if (rng.bernoulli(0.5)) {
          user.exclude_countries = {countries[pick(countries.size())]};
        } else {
          user.exclude_isds = {isds[pick(isds.size())]};
        }
      } else {
        user.max_latency_ms = rng.uniform(50.0, 400.0);
        user.max_loss_pct = rng.uniform(0.5, 5.0);
      }
    }
    request.docs = docs[{user.server_id, windowed}];
  }
  return requests;
}

/// Output checks: every path of the destination is either ranked or
/// rejected, and every ranked path is admissible under the strategy
/// that ranked it.
void check_selection(Report& report, const select::PathSelector& selector,
                     const Request& request, const Selection& selection,
                     std::size_t paths,
                     const select::PathSelectionStrategy& strategy) {
  if (selection.ranked.size() + selection.rejected.size() != paths) {
    report.check(false, "selection lost paths of server " +
                            std::to_string(request.user.server_id));
  }
  for (const select::RankedPath& ranked : selection.ranked) {
    const select::AdmissionReport admission = select::check_admission(
        ranked.summary, request.user, selector.context(), strategy);
    if (admission.rejection.has_value()) {
      report.check(false, "ranked path " + ranked.summary.path_id +
                              " is inadmissible: " + *admission.rejection);
    }
  }
}

// ---- traced replay ----------------------------------------------------------

struct SelectReplay {
  Tracer tracer;
  std::size_t requests = 0;
  std::size_t docs_returned = 0;
  double docs = 0.0;
  double wall_s = 0.0;
  Counters delta;
};

/// select_with(strategy, request), step by step, with a span per step.
Result<Selection> replay_select(const Population& population,
                                const select::PathSelector& selector,
                                const Request& request, SelectReplay& replay) {
  Tracer& tracer = replay.tracer;
  const Tracer::Span root(tracer, "request", replay.requests);
  Result<std::unique_ptr<select::PathSelectionStrategy>> strategy = [&] {
    const Tracer::Span span(tracer, "select.create");
    return select::StrategyRegistry::global().create(request.strategy);
  }();
  if (!strategy.ok()) return strategy.error();

  const docdb::Collection* paths =
      population.db.find_collection(measure::kPaths);
  const docdb::Collection* stats =
      population.db.find_collection(measure::kPathsStats);
  if (paths == nullptr || stats == nullptr) {
    return util::Error{util::ErrorCode::kNotFound, "collections missing"};
  }
  std::vector<docdb::Document> path_docs;
  {
    const Tracer::Span span(tracer, "docdb.find");
    util::JsonObject query;
    query.set("server_id", Value(request.user.server_id));
    const Result<docdb::Filter> by_server =
        docdb::Filter::compile(Value(std::move(query)));
    if (!by_server.ok()) return by_server.error();
    docdb::FindOptions in_order;
    in_order.sort_by = "path_index";
    path_docs = paths->find(by_server.value(), in_order);
  }
  replay.docs_returned += path_docs.size();

  std::vector<PathSummary> summaries;
  summaries.reserve(path_docs.size());
  for (const docdb::Document& path_doc : path_docs) {
    PathSummary summary;
    {
      const Tracer::Span span(tracer, "measure.parse");
      const Result<measure::PathRecord> record =
          measure::parse_path_document(path_doc);
      if (!record.ok()) return record.error();
      summary.path_id = record.value().id;
      summary.server_id = record.value().server_id;
      summary.sequence = record.value().sequence;
      summary.hop_count = record.value().hop_count;
      summary.isds = record.value().isds;
      summary.mtu = record.value().mtu;
      const Result<scion::Path> parsed =
          scion::Path::parse_sequence(record.value().sequence);
      if (parsed.ok()) {
        for (const scion::PathHop& hop : parsed.value().hops()) {
          summary.hops.push_back(hop.ia);
        }
      }
    }
    std::vector<docdb::Document> stats_docs;
    {
      const Tracer::Span span(tracer, "docdb.find");
      util::JsonObject query;
      query.set("path_id", Value(summary.path_id));
      if (request.user.since_timestamp_ms.has_value()) {
        query.set("timestamp_ms",
                  Value::object(
                      {{"$gte", Value(*request.user.since_timestamp_ms)}}));
      }
      const Result<docdb::Filter> by_path =
          docdb::Filter::compile(Value(std::move(query)));
      if (!by_path.ok()) return by_path.error();
      stats_docs = stats->find(by_path.value());
    }
    replay.docs_returned += stats_docs.size();

    {
      // The documents and sample columns are released inside this span:
      // consuming a find's result is part of parsing it.
      const Tracer::Span span(tracer, "measure.parse");
      const std::vector<docdb::Document> docs = std::move(stats_docs);
      std::vector<double> latencies, losses, jitters;
      std::vector<double> bw_down_mtu, bw_up_mtu, bw_down_64, bw_up_64;
      const auto keep = [](std::vector<double>& into, std::optional<double> v) {
        if (v.has_value()) into.push_back(*v);
      };
      for (const docdb::Document& doc : docs) {
        const Result<measure::StatsSample> sample =
            measure::parse_stats_document(doc);
        if (!sample.ok()) continue;
        ++summary.samples;
        losses.push_back(sample.value().loss_pct);
        keep(latencies, sample.value().latency_ms);
        keep(jitters, sample.value().jitter_ms);
        keep(bw_down_mtu, sample.value().bw_down_mtu);
        keep(bw_up_mtu, sample.value().bw_up_mtu);
        keep(bw_down_64, sample.value().bw_down_64);
        keep(bw_up_64, sample.value().bw_up_64);
      }

      const Tracer::Span aggregate(tracer, "select.aggregate");
      const auto mean_of = [](const std::vector<double>& v) {
        return v.empty() ? std::nullopt : std::optional<double>(util::mean(v));
      };
      summary.latency_samples = latencies.size();
      if (!latencies.empty()) summary.latency_ms = util::box_stats(latencies);
      if (!losses.empty()) summary.mean_loss_pct = util::mean(losses);
      summary.mean_jitter_ms = mean_of(jitters);
      summary.mean_bw_down_mtu = mean_of(bw_down_mtu);
      summary.mean_bw_up_mtu = mean_of(bw_up_mtu);
      summary.mean_bw_down_64 = mean_of(bw_down_64);
      summary.mean_bw_up_64 = mean_of(bw_up_64);
    }
    summaries.push_back(std::move(summary));
  }

  const Tracer::Span span(tracer, "select.rank");
  return strategy.value()->rank(summaries, request.user, selector.context());
}

bool same_ranking(const Selection& a, const Selection& b) {
  if (a.ranked.size() != b.ranked.size() || a.rejected != b.rejected) {
    return false;
  }
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].summary.path_id != b.ranked[i].summary.path_id ||
        a.ranked[i].score != b.ranked[i].score) {
      return false;
    }
  }
  return true;
}

}  // namespace

Report run_select_mix(const Options& options) {
  Report report;
  // The population is built three times, each timed, for a steadier
  // setup_s median; the last one serves the requests.
  const std::uint64_t population_seed = derive_seed(options.seed, 0);
  std::unique_ptr<Population> population;
  for (int i = 0; i < (options.smoke ? 1 : 3); ++i) {
    population.reset();
    const std::int64_t cpu = thread_cpu_ns();
    const std::int64_t start = now_ns();
    population = populate(options, population_seed, report);
    report.setup(start, now_ns(), thread_cpu_ns() - cpu);
  }
  const std::vector<Request> requests =
      make_requests(*population, derive_seed(options.seed, 1));

  const select::PathSelector selector(population->db, population->env.topology);
  std::map<std::string, std::unique_ptr<select::PathSelectionStrategy>>
      strategies;
  for (const std::string& key : select::StrategyRegistry::global().keys()) {
    strategies[key] =
        std::move(select::StrategyRegistry::global().create(key)).value();
  }
  std::map<int, std::size_t> paths_per_server;
  if (const docdb::Collection* paths =
          population->db.find_collection(measure::kPaths)) {
    paths->for_each([&](const docdb::Document& doc) {
      if (const Value* id = doc.get("server_id"); id && id->is_int()) {
        ++paths_per_server[static_cast<int>(id->as_int())];
      }
    });
  }

  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    const Request& request = requests[i];
    (void)selector.select_with(request.strategy, request.user);
  }

  SelectReplay replay;
  std::size_t next = kWarmupRequests;
  report.probe.sample();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  do {
    const Request& request = requests[next++ % requests.size()];
    std::optional<Result<Selection>> replayed;
    const auto traced_replay = [&] {
      const Counters before = Counters::read(nullptr);
      const std::int64_t start = now_ns();
      replayed = replay_select(*population, selector, request, replay);
      replay.wall_s += seconds_since(start);
      replay.delta += Counters::read(nullptr) - before;
      ++replay.requests;
      replay.docs += request.docs;
    };
    // Alternate which of the pair runs first, so neither gets the other's
    // warm caches every time (trace.overhead_pct compares them).
    if (options.trace && next % 2 == 0) traced_replay();

    const std::int64_t cpu = thread_cpu_ns();
    const std::int64_t start = now_ns();
    const Result<Selection> selection =
        selector.select_with(request.strategy, request.user);
    const std::int64_t end = now_ns();
    const std::int64_t cpu_used = thread_cpu_ns() - cpu;
    ++report.attempted;
    if (!selection.ok()) {
      ++report.failed;
      report.check(false, "select_with: " + selection.error().message);
      continue;
    }
    report.op(start, end, cpu_used, request.docs);
    report.probe.tick();
    check_selection(report, selector, request, selection.value(),
                    paths_per_server[request.user.server_id],
                    *strategies[request.strategy]);
    if (!options.trace) continue;
    if (!replayed.has_value()) traced_replay();
    if (!replayed->ok() ||
        !same_ranking(replayed->value(), selection.value())) {
      report.check(false, "replayed ranking differs from select_with for " +
                              request.user.describe());
    }
  } while (now_ns() < deadline);

  report.notes.push_back(
      util::format("select samples: %zu", report.ops.size()));
  if (options.trace && replay.requests > 0) {
    const double n = static_cast<double>(replay.requests);
    const Tracer& tracer = replay.tracer;
    auto& layer = report.layer;
    layer["docdb.find.self_us"] = tracer.self_us("docdb.find", n);
    layer["docdb.find.docs_returned"] =
        static_cast<double>(replay.docs_returned) / n;
    layer["measure.parse.self_us"] = tracer.self_us("measure.parse", n);
    layer["measure.residual_us"] = tracer.self_us("request", n);
    layer["measure.failed_share"] =
        static_cast<double>(report.failed) /
        static_cast<double>(report.attempted);
    layer["select.create.self_us"] = tracer.self_us("select.create", n);
    layer["select.aggregate.self_us"] = tracer.self_us("select.aggregate", n);
    layer["select.rank.self_us"] = tracer.self_us("select.rank", n);
    add_counter_layers(report, replay.delta, n, 0.0, 0.0);
    (void)add_trace_layers(report, tracer, "request", report.docs_per_s(),
                           replay.docs / replay.wall_s);
    write_trace(report, tracer, options);
  }
  return report;
}

}  // namespace upin::e2e
