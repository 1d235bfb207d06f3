// strategies.cpp — the five shipped path-selection strategies and the
// global registry that serves them.
//
// All strategies share the admission pipeline (`check_admission`); they
// differ only in how admitted paths are scored and ordered.  The
// paper-objective strategy reproduces the legacy `PathSelector::select`
// output bit-identically (golden-tested); the others explore the design
// space the axiomatic-analysis literature describes: single-statistic
// greedy, smooth multi-metric penalties, geography, and hop-set
// anti-affinity for multipath.
#include <algorithm>
#include <set>
#include <string>

#include "scion/topology.hpp"
#include "select/strategy.hpp"
#include "simnet/geo.hpp"
#include "util/strings.hpp"

namespace upin::select {
namespace {

using util::JsonObject;
using util::Value;

/// Admission + raw scoring shared by every built-in: fills `ranked` with
/// admitted paths (score from `score_path`, unsorted, no rationale yet)
/// and both rejection records.  Callers order and annotate.
Selection admit(std::span<const PathSummary> paths, const UserRequest& request,
                const SelectionContext& context,
                const PathSelectionStrategy& strategy) {
  Selection out;
  out.strategy = std::string(strategy.key());
  out.request_description = request.describe();
  for (const PathSummary& summary : paths) {
    // Most paths pass: admit without verdict text, and evaluate a
    // rejected path again, recording, for its reasons.
    const std::optional<double> score =
        admitted_score(summary, request, context, strategy);
    if (!score.has_value()) {
      AdmissionReport report =
          check_admission(summary, request, context, strategy);
      out.rejected.emplace_back(summary.path_id, *report.rejection);
      out.rejected_detail.push_back(RejectedPath{summary.path_id,
                                                 std::move(*report.rejection),
                                                 std::move(report.verdicts)});
      continue;
    }
    RankedPath ranked;
    ranked.summary = summary;
    ranked.score = *score;
    out.ranked.push_back(std::move(ranked));
  }
  return out;
}

/// Base for strategies whose final order is simply ascending score:
/// admit, annotate, stable-sort.  The stable sort preserves summarize()'s
/// path_index order among ties, exactly like the legacy selector.
class ScoredStrategy : public PathSelectionStrategy {
 public:
  [[nodiscard]] Selection rank(std::span<const PathSummary> paths,
                               const UserRequest& request,
                               const SelectionContext& context) const override {
    Selection out = admit(paths, request, context, *this);
    for (RankedPath& path : out.ranked) {
      path.rationale = rationale(path.summary, path.score, request, context);
      path.terms = terms(path.summary, path.score, request, context);
    }
    std::stable_sort(out.ranked.begin(), out.ranked.end(),
                     [](const RankedPath& a, const RankedPath& b) {
                       return a.score < b.score;
                     });
    return out;
  }

 protected:
  [[nodiscard]] virtual std::string rationale(
      const PathSummary& summary, double score, const UserRequest& request,
      const SelectionContext& context) const = 0;

  [[nodiscard]] virtual std::vector<ScoreTerm> terms(
      const PathSummary& /*summary*/, double /*score*/,
      const UserRequest& /*request*/, const SelectionContext& /*context*/) const {
    return {};
  }
};

// ---- paper-objective ----------------------------------------------------

/// The paper's §6 pipeline, bit-identical to the pre-registry
/// `PathSelector::select`: same scores, same rationale strings, same
/// rejection strings, same stable order.
class PaperObjectiveStrategy final : public ScoredStrategy {
 public:
  [[nodiscard]] std::string_view key() const noexcept override {
    return kPaperObjective;
  }

  [[nodiscard]] std::optional<double> score_path(
      const PathSummary& summary, const UserRequest& request,
      const SelectionContext& /*context*/) const override {
    return paper_objective_score(summary, request);
  }

  [[nodiscard]] std::string missing_data_reason(
      const UserRequest& request) const override {
    return std::string("no data for objective ") + to_string(request.objective);
  }

 protected:
  [[nodiscard]] std::string rationale(
      const PathSummary& summary, double score, const UserRequest& request,
      const SelectionContext& /*context*/) const override {
    switch (request.objective) {
      case Objective::kLowestLatency:
        return util::format("median latency %.2fms over %zu samples",
                            summary.latency_ms->median, summary.latency_samples);
      case Objective::kHighestBandwidth:
        return util::format(
            "mean %s bandwidth %.2fMbps",
            request.bw_direction == BwDirection::kDownstream ? "downstream"
                                                             : "upstream",
            -score);
      case Objective::kLowestLoss:
        return util::format("mean loss %.2f%%", summary.mean_loss_pct);
      case Objective::kMostConsistent:
        return util::format("latency IQR %.2fms", summary.latency_ms->iqr);
    }
    return {};
  }

  [[nodiscard]] std::vector<ScoreTerm> terms(
      const PathSummary& summary, double score, const UserRequest& request,
      const SelectionContext& /*context*/) const override {
    switch (request.objective) {
      case Objective::kLowestLatency:
        return {{"median_latency_ms", score}};
      case Objective::kHighestBandwidth:
        return {{"bandwidth_mbps", -score}};
      case Objective::kLowestLoss:
        return {{"loss_pct", summary.mean_loss_pct},
                {"latency_tiebreak_ms", summary.latency_ms.has_value()
                                            ? summary.latency_ms->median
                                            : 0.0}};
      case Objective::kMostConsistent:
        return {{"latency_iqr_ms", score}};
    }
    return {};
  }
};

// ---- latency-greedy -----------------------------------------------------

/// One configurable latency box statistic, nothing else.  `statistic`
/// selects which corner of the latency distribution to chase: `median`
/// (default), `mean`, `q1` (optimistic), `q3` or `whisker_high`
/// (pessimistic tail latency).
class LatencyGreedyStrategy final : public ScoredStrategy {
 public:
  enum class Stat { kMedian, kMean, kQ1, kQ3, kWhiskerHigh };

  static std::optional<Stat> parse_stat(std::string_view name) {
    if (name == "median") return Stat::kMedian;
    if (name == "mean") return Stat::kMean;
    if (name == "q1") return Stat::kQ1;
    if (name == "q3") return Stat::kQ3;
    if (name == "whisker_high") return Stat::kWhiskerHigh;
    return std::nullopt;
  }

  explicit LatencyGreedyStrategy(Stat stat, std::string stat_name)
      : stat_(stat), stat_name_(std::move(stat_name)) {}

  [[nodiscard]] std::string_view key() const noexcept override {
    return kLatencyGreedy;
  }

  [[nodiscard]] std::optional<double> score_path(
      const PathSummary& summary, const UserRequest& /*request*/,
      const SelectionContext& /*context*/) const override {
    if (!summary.latency_ms.has_value()) return std::nullopt;
    const util::BoxStats& box = *summary.latency_ms;
    switch (stat_) {
      case Stat::kMedian: return box.median;
      case Stat::kMean: return box.mean;
      case Stat::kQ1: return box.q1;
      case Stat::kQ3: return box.q3;
      case Stat::kWhiskerHigh: return box.whisker_high;
    }
    return std::nullopt;
  }

 protected:
  [[nodiscard]] std::string rationale(
      const PathSummary& summary, double score, const UserRequest& /*request*/,
      const SelectionContext& /*context*/) const override {
    return util::format("latency %s %.2fms over %zu samples",
                        stat_name_.c_str(), score, summary.latency_samples);
  }

  [[nodiscard]] std::vector<ScoreTerm> terms(
      const PathSummary& /*summary*/, double score,
      const UserRequest& /*request*/,
      const SelectionContext& /*context*/) const override {
    return {{"latency_" + stat_name_ + "_ms", score}};
  }

 private:
  Stat stat_;
  std::string stat_name_;
};

// ---- loss-averse --------------------------------------------------------

/// Loss first, latency and jitter as smooth penalties: score =
/// loss_pct + latency_weight·median_latency + jitter_weight·jitter.
/// Unlike the paper's lowest-loss objective (which multiplies loss by
/// 1e6, making latency a pure tiebreak), the weights trade the metrics
/// off continuously.  Always scoreable — missing latency/jitter terms
/// contribute zero rather than disqualifying the path.
class LossAverseStrategy final : public ScoredStrategy {
 public:
  LossAverseStrategy(double latency_weight, double jitter_weight)
      : latency_weight_(latency_weight), jitter_weight_(jitter_weight) {}

  [[nodiscard]] std::string_view key() const noexcept override {
    return kLossAverse;
  }

  [[nodiscard]] std::optional<double> score_path(
      const PathSummary& summary, const UserRequest& /*request*/,
      const SelectionContext& /*context*/) const override {
    return summary.mean_loss_pct + latency_weight_ * latency_term(summary) +
           jitter_weight_ * jitter_term(summary);
  }

 protected:
  [[nodiscard]] std::string rationale(
      const PathSummary& summary, double score, const UserRequest& /*request*/,
      const SelectionContext& /*context*/) const override {
    return util::format("loss %.2f%% + weighted latency/jitter -> %.3f",
                        summary.mean_loss_pct, score);
  }

  [[nodiscard]] std::vector<ScoreTerm> terms(
      const PathSummary& summary, double /*score*/,
      const UserRequest& /*request*/,
      const SelectionContext& /*context*/) const override {
    return {{"loss_pct", summary.mean_loss_pct},
            {"latency_penalty", latency_weight_ * latency_term(summary)},
            {"jitter_penalty", jitter_weight_ * jitter_term(summary)}};
  }

 private:
  static double latency_term(const PathSummary& summary) {
    return summary.latency_ms.has_value() ? summary.latency_ms->median : 0.0;
  }
  static double jitter_term(const PathSummary& summary) {
    return summary.mean_jitter_ms.value_or(0.0);
  }

  double latency_weight_;
  double jitter_weight_;
};

// ---- geo-constrained ----------------------------------------------------

/// Sovereignty hard filter (shared admission) + geography: rank by total
/// great-circle distance along the hop chain, with a small latency
/// tiebreak so equal-geometry paths still order by measured performance
/// (and a strictly slower clone of a path ranks strictly worse).  With
/// `require_geo`, paths whose hop chain cannot be resolved against the
/// topology are rejected instead of scored as distance zero.
class GeoConstrainedStrategy final : public ScoredStrategy {
 public:
  explicit GeoConstrainedStrategy(bool require_geo)
      : require_geo_(require_geo) {}

  [[nodiscard]] std::string_view key() const noexcept override {
    return kGeoConstrained;
  }

  [[nodiscard]] std::optional<double> score_path(
      const PathSummary& summary, const UserRequest& /*request*/,
      const SelectionContext& context) const override {
    const std::optional<double> km = geodesic_km(summary, context);
    if (!km.has_value()) return std::nullopt;
    return *km + kLatencyTiebreak * (summary.latency_ms.has_value()
                                         ? summary.latency_ms->median
                                         : 0.0);
  }

 protected:
  [[nodiscard]] std::string rationale(
      const PathSummary& summary, double /*score*/,
      const UserRequest& /*request*/,
      const SelectionContext& context) const override {
    const double km = geodesic_km(summary, context).value_or(0.0);
    return util::format("geodesic %.0fkm over %zu hops", km,
                        summary.hops.size());
  }

  [[nodiscard]] std::vector<ScoreTerm> terms(
      const PathSummary& summary, double score,
      const UserRequest& /*request*/,
      const SelectionContext& context) const override {
    const double km = geodesic_km(summary, context).value_or(0.0);
    return {{"geodesic_km", km}, {"latency_tiebreak", score - km}};
  }

 private:
  static constexpr double kLatencyTiebreak = 0.001;  ///< km per ms

  /// Sum of great-circle hop distances; nullopt when `require_geo` is set
  /// and no consecutive hop pair resolves against the topology.
  [[nodiscard]] std::optional<double> geodesic_km(
      const PathSummary& summary, const SelectionContext& context) const {
    double km = 0.0;
    bool resolved_any = false;
    if (context.topology != nullptr) {
      for (std::size_t i = 1; i < summary.hops.size(); ++i) {
        const scion::AsInfo* from = context.topology->find_as(summary.hops[i - 1]);
        const scion::AsInfo* to = context.topology->find_as(summary.hops[i]);
        if (from == nullptr || to == nullptr) continue;
        km += simnet::haversine_km(from->location, to->location);
        resolved_any = true;
      }
    }
    if (require_geo_ && !resolved_any) return std::nullopt;
    return km;
  }

  bool require_geo_;
};

// ---- disjointness-max ---------------------------------------------------

/// Greedy hop-set anti-affinity for multipath: the best path by the base
/// metric goes first, then each successive slot picks the admitted path
/// with the least interior-hop overlap against everything already chosen
/// (ties broken by base score, then input order).  The final score is
/// `position + overlap/2`, strictly increasing down the ranking, so
/// multipath weights decay with both rank and redundancy.
class DisjointnessMaxStrategy final : public PathSelectionStrategy {
 public:
  DisjointnessMaxStrategy(std::size_t pool, bool base_is_loss)
      : pool_(pool), base_is_loss_(base_is_loss) {}

  [[nodiscard]] std::string_view key() const noexcept override {
    return kDisjointnessMax;
  }

  /// The base metric (what admission's objective-data check needs).
  [[nodiscard]] std::optional<double> score_path(
      const PathSummary& summary, const UserRequest& /*request*/,
      const SelectionContext& /*context*/) const override {
    if (base_is_loss_) {
      return summary.mean_loss_pct * 1e6 + (summary.latency_ms.has_value()
                                                ? summary.latency_ms->median
                                                : 0.0);
    }
    if (!summary.latency_ms.has_value()) return std::nullopt;
    return summary.latency_ms->median;
  }

  [[nodiscard]] Selection rank(std::span<const PathSummary> paths,
                               const UserRequest& request,
                               const SelectionContext& context) const override {
    Selection out = admit(paths, request, context, *this);
    // Base order first: ascending base score, input order on ties.
    std::stable_sort(out.ranked.begin(), out.ranked.end(),
                     [](const RankedPath& a, const RankedPath& b) {
                       return a.score < b.score;
                     });

    const std::size_t greedy_slots =
        pool_ == 0 ? out.ranked.size() : std::min(pool_, out.ranked.size());
    std::vector<RankedPath> remaining = std::move(out.ranked);
    out.ranked.clear();
    out.ranked.reserve(remaining.size());

    std::set<scion::IsdAsn> chosen_hops;
    while (!remaining.empty()) {
      std::size_t pick = 0;
      double pick_overlap = overlap_with(chosen_hops, remaining[0].summary);
      if (out.ranked.size() < greedy_slots) {
        // Remaining is kept in base order, so scanning forward and
        // requiring a strict improvement implements "least overlap, ties
        // by base score then input order" — and leaves a duplicated
        // winner behind its original.
        for (std::size_t i = 1; i < remaining.size(); ++i) {
          const double overlap = overlap_with(chosen_hops, remaining[i].summary);
          if (overlap < pick_overlap) {
            pick = i;
            pick_overlap = overlap;
          }
        }
      }
      RankedPath chosen = std::move(remaining[pick]);
      remaining.erase(remaining.begin() +
                      static_cast<std::vector<RankedPath>::difference_type>(pick));
      for (const scion::IsdAsn& hop : interior_hops(chosen.summary)) {
        chosen_hops.insert(hop);
      }
      const double base = chosen.score;
      chosen.score =
          static_cast<double>(out.ranked.size()) + pick_overlap / 2.0;
      chosen.rationale = util::format(
          "interior-hop overlap %.0f%% with higher-ranked picks; base %s %.3f",
          pick_overlap * 100.0, base_is_loss_ ? "loss" : "latency", base);
      chosen.terms = {{"overlap_fraction", pick_overlap}, {"base_score", base}};
      out.ranked.push_back(std::move(chosen));
    }
    return out;
  }

 private:
  /// Hops that can actually be disjoint: everything but the shared source
  /// and destination endpoints.
  [[nodiscard]] static std::span<const scion::IsdAsn> interior_hops(
      const PathSummary& summary) {
    if (summary.hops.size() <= 2) return {};
    return std::span<const scion::IsdAsn>(summary.hops).subspan(
        1, summary.hops.size() - 2);
  }

  [[nodiscard]] static double overlap_with(
      const std::set<scion::IsdAsn>& chosen_hops, const PathSummary& summary) {
    const std::span<const scion::IsdAsn> interior = interior_hops(summary);
    if (interior.empty() || chosen_hops.empty()) return 0.0;
    std::size_t shared = 0;
    for (const scion::IsdAsn& hop : interior) {
      if (chosen_hops.count(hop) != 0) ++shared;
    }
    return static_cast<double>(shared) / static_cast<double>(interior.size());
  }

  std::size_t pool_;
  bool base_is_loss_;
};

// ---- registration -------------------------------------------------------

void register_builtin_strategies(StrategyRegistry& registry) {
  (void)registry.add(
      std::string(kPaperObjective),
      StrategyRegistry::Entry{
          "the paper's §6 objective pipeline (legacy PathSelector::select)",
          {},
          [](const JsonObject&) {
            return std::make_unique<PaperObjectiveStrategy>();
          }});
  (void)registry.add(
      std::string(kLatencyGreedy),
      StrategyRegistry::Entry{
          "rank by one latency box statistic",
          {KnobSpec{"statistic", Value::Type::kString, Value("median"),
                    "which latency statistic to minimize: median, mean, q1, "
                    "q3 or whisker_high"}},
          [](const JsonObject& knobs) -> std::unique_ptr<PathSelectionStrategy> {
            const std::string& name = knobs.find("statistic")->as_string();
            const auto stat = LatencyGreedyStrategy::parse_stat(name);
            if (!stat.has_value()) return nullptr;
            return std::make_unique<LatencyGreedyStrategy>(*stat, name);
          }});
  (void)registry.add(
      std::string(kLossAverse),
      StrategyRegistry::Entry{
          "loss first, latency and jitter as smooth weighted penalties",
          {KnobSpec{"latency_weight", Value::Type::kDouble, Value(0.01),
                    "score added per ms of median latency"},
           KnobSpec{"jitter_weight", Value::Type::kDouble, Value(0.0),
                    "score added per ms of mean jitter"}},
          [](const JsonObject& knobs) {
            return std::make_unique<LossAverseStrategy>(
                knobs.find("latency_weight")->as_double(),
                knobs.find("jitter_weight")->as_double());
          }});
  (void)registry.add(
      std::string(kGeoConstrained),
      StrategyRegistry::Entry{
          "sovereignty hard filter + great-circle distance, latency tiebreak",
          {KnobSpec{"require_geo", Value::Type::kBool, Value(false),
                    "reject paths whose hop chain cannot be resolved against "
                    "the topology"}},
          [](const JsonObject& knobs) {
            return std::make_unique<GeoConstrainedStrategy>(
                knobs.find("require_geo")->as_bool());
          }});
  (void)registry.add(
      std::string(kDisjointnessMax),
      StrategyRegistry::Entry{
          "greedy interior-hop anti-affinity over the best admitted paths",
          {KnobSpec{"pool", Value::Type::kInt, Value(0),
                    "greedy slots to fill by anti-affinity; 0 = all admitted"},
           KnobSpec{"base", Value::Type::kString, Value("latency"),
                    "base metric ordering candidates: latency or loss"}},
          [](const JsonObject& knobs) -> std::unique_ptr<PathSelectionStrategy> {
            const std::string& base = knobs.find("base")->as_string();
            if (base != "latency" && base != "loss") return nullptr;
            const std::int64_t pool = knobs.find("pool")->as_int();
            if (pool < 0) return nullptr;
            return std::make_unique<DisjointnessMaxStrategy>(
                static_cast<std::size_t>(pool), base == "loss");
          }});
}

}  // namespace

StrategyRegistry& StrategyRegistry::global() {
  static StrategyRegistry* registry = [] {
    auto* r = new StrategyRegistry();  // leaked: lives for the process
    register_builtin_strategies(*r);
    return r;
  }();
  return *registry;
}

}  // namespace upin::select
