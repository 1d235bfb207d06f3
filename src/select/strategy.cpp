#include "select/strategy.hpp"

#include <algorithm>
#include <concepts>
#include <string_view>

#include "scion/control_plane.hpp"
#include "scion/topology.hpp"
#include "util/clock.hpp"
#include "util/strings.hpp"

namespace upin::select {

using util::ErrorCode;
using util::JsonObject;
using util::Result;
using util::Value;

std::string PathSelectionStrategy::missing_data_reason(
    const UserRequest& /*request*/) const {
  return "no data for strategy " + std::string(key());
}

std::optional<double> request_bandwidth(const PathSummary& summary,
                                        const UserRequest& request) {
  if (request.bw_probe_bytes.has_value()) {
    return summary.bandwidth(request.bw_direction, *request.bw_probe_bytes);
  }
  return summary.bandwidth(request.bw_direction);
}

std::optional<double> paper_objective_score(const PathSummary& summary,
                                            const UserRequest& request) {
  switch (request.objective) {
    case Objective::kLowestLatency:
      if (!summary.latency_ms.has_value()) return std::nullopt;
      return summary.latency_ms->median;
    case Objective::kHighestBandwidth: {
      const std::optional<double> bw = request_bandwidth(summary, request);
      if (!bw.has_value()) return std::nullopt;
      return -*bw;  // lower score = better
    }
    case Objective::kLowestLoss:
      // Tie-break equal losses by latency when available.
      return summary.mean_loss_pct * 1e6 +
             (summary.latency_ms.has_value() ? summary.latency_ms->median : 0.0);
    case Objective::kMostConsistent:
      // §6.1: "latency consistency is more important than low latency
      // values" for streaming/VoIP — rank by latency IQR.
      if (!summary.latency_ms.has_value() || summary.latency_samples < 2) {
        return std::nullopt;
      }
      return summary.latency_ms->iqr;
  }
  return std::nullopt;
}

namespace {

/// Where check_admission's constraint sequence reports its verdicts.
/// Recording, it appends every verdict to a report and latches the first
/// failure's detail as the rejection.  Not recording (null report), it
/// only notes whether a constraint failed and builds no detail text, so
/// a formatted detail is passed as a callable that only recording runs.
class VerdictSink {
 public:
  explicit VerdictSink(AdmissionReport* report) noexcept : report_(report) {}

  [[nodiscard]] bool failed() const noexcept { return failed_; }

  template <std::invocable Detail>
  void pass(const char* constraint, const Detail& detail) {
    if (report_ == nullptr) return;
    report_->verdicts.push_back(ConstraintVerdict{constraint, true, detail()});
  }
  void pass(const char* constraint) {
    pass(constraint, [] { return std::string(); });
  }

  template <std::invocable Detail>
  void fail(const char* constraint, const Detail& detail) {
    failed_ = true;
    if (report_ == nullptr) return;
    std::string text = detail();
    if (!report_->rejection.has_value()) report_->rejection = text;
    report_->verdicts.push_back(
        ConstraintVerdict{constraint, false, std::move(text)});
  }
  void fail(const char* constraint, std::string_view detail) {
    fail(constraint, [detail] { return std::string(detail); });
  }

 private:
  AdmissionReport* report_;
  bool failed_ = false;
};

/// The request's hard constraints plus the strategy's data requirement,
/// in order, reported to `sink`.  Returns the strategy's score for the
/// path (nullopt when it has none, which is itself a failed constraint).
std::optional<double> evaluate_admission(const PathSummary& summary,
                                         const UserRequest& request,
                                         const SelectionContext& context,
                                         const PathSelectionStrategy& strategy,
                                         VerdictSink& sink) {
  // Evaluation order matches the legacy rejection pipeline exactly so the
  // paper-objective strategy reproduces its rejection strings verbatim.
  if (summary.samples < request.min_samples) {
    sink.fail("min-samples", [&] {
      return util::format("only %zu samples (need %zu)", summary.samples,
                          request.min_samples);
    });
  } else {
    sink.pass("min-samples",
              [&] { return util::format("%zu samples", summary.samples); });
  }

  // Control-plane liveness: a delivered, unexpired revocation disqualifies
  // the path no matter how good its measurement history looks.
  if (context.control_plane != nullptr && context.clock != nullptr) {
    if (context.control_plane->hops_revoked(summary.hops,
                                            context.clock->now())) {
      sink.fail("liveness", "path revoked by control plane");
    } else {
      sink.pass("liveness");
    }
  }

  // Sovereignty / governance constraints over every hop.
  const bool sovereignty_active = !request.exclude_countries.empty() ||
                                  !request.exclude_operators.empty() ||
                                  !request.exclude_ases.empty();
  std::optional<std::string> sovereignty_failure;
  if (context.topology != nullptr) {
    for (const scion::IsdAsn& hop : summary.hops) {
      if (sovereignty_failure.has_value()) break;
      const scion::AsInfo* info = context.topology->find_as(hop);
      if (info == nullptr) continue;
      for (const std::string& country : request.exclude_countries) {
        if (info->country == country) {
          sovereignty_failure = "traverses excluded country " + country +
                                " (" + hop.to_string() + ")";
          break;
        }
      }
      if (sovereignty_failure.has_value()) break;
      for (const std::string& op : request.exclude_operators) {
        if (info->operator_name == op) {
          sovereignty_failure = "traverses excluded operator " + op + " (" +
                                hop.to_string() + ")";
          break;
        }
      }
      if (sovereignty_failure.has_value()) break;
      if (std::find(request.exclude_ases.begin(), request.exclude_ases.end(),
                    hop) != request.exclude_ases.end()) {
        sovereignty_failure = "traverses excluded AS " + hop.to_string();
      }
    }
  } else {
    for (const scion::IsdAsn& hop : summary.hops) {
      if (std::find(request.exclude_ases.begin(), request.exclude_ases.end(),
                    hop) != request.exclude_ases.end()) {
        sovereignty_failure = "traverses excluded AS " + hop.to_string();
        break;
      }
    }
  }
  if (sovereignty_failure.has_value()) {
    sink.fail("sovereignty", *sovereignty_failure);
  } else if (sovereignty_active) {
    sink.pass("sovereignty");
  }

  std::optional<std::string> isd_failure;
  for (const std::int64_t isd : summary.isds) {
    if (std::find(request.exclude_isds.begin(), request.exclude_isds.end(),
                  static_cast<std::uint16_t>(isd)) !=
        request.exclude_isds.end()) {
      isd_failure = "traverses excluded ISD " + std::to_string(isd);
      break;
    }
    if (!request.allowed_isds.empty() &&
        std::find(request.allowed_isds.begin(), request.allowed_isds.end(),
                  static_cast<std::uint16_t>(isd)) ==
            request.allowed_isds.end()) {
      isd_failure =
          "traverses ISD " + std::to_string(isd) + " outside the allow-list";
      break;
    }
  }
  if (isd_failure.has_value()) {
    sink.fail("isd-policy", *isd_failure);
  } else if (!request.exclude_isds.empty() || !request.allowed_isds.empty()) {
    sink.pass("isd-policy");
  }

  // Performance constraints.
  if (request.max_latency_ms.has_value()) {
    if (!summary.latency_ms.has_value()) {
      sink.fail("max-latency", "no latency data");
    } else if (summary.latency_ms->median > *request.max_latency_ms) {
      sink.fail("max-latency", [&] {
        return util::format("median latency %.1fms exceeds %.1fms",
                            summary.latency_ms->median,
                            *request.max_latency_ms);
      });
    } else {
      sink.pass("max-latency", [&] {
        return util::format("median %.1fms", summary.latency_ms->median);
      });
    }
  }
  if (request.min_bandwidth_mbps.has_value()) {
    const std::optional<double> bw = request_bandwidth(summary, request);
    if (!bw.has_value()) {
      sink.fail("min-bandwidth", "no bandwidth data");
    } else if (*bw < *request.min_bandwidth_mbps) {
      sink.fail("min-bandwidth", [&] {
        return util::format("bandwidth %.1fMbps below %.1fMbps", *bw,
                            *request.min_bandwidth_mbps);
      });
    } else {
      sink.pass("min-bandwidth",
                [&] { return util::format("%.1fMbps", *bw); });
    }
  }
  if (request.max_loss_pct.has_value()) {
    if (summary.mean_loss_pct > *request.max_loss_pct) {
      sink.fail("max-loss", [&] {
        return util::format("loss %.1f%% exceeds %.1f%%",
                            summary.mean_loss_pct, *request.max_loss_pct);
      });
    } else {
      sink.pass("max-loss",
                [&] { return util::format("%.1f%%", summary.mean_loss_pct); });
    }
  }
  if (request.max_jitter_ms.has_value()) {
    if (!summary.mean_jitter_ms.has_value()) {
      sink.fail("max-jitter", "no jitter data");
    } else if (*summary.mean_jitter_ms > *request.max_jitter_ms) {
      sink.fail("max-jitter", [&] {
        return util::format("jitter %.1fms exceeds %.1fms",
                            *summary.mean_jitter_ms, *request.max_jitter_ms);
      });
    } else {
      sink.pass("max-jitter", [&] {
        return util::format("%.1fms", *summary.mean_jitter_ms);
      });
    }
  }

  // The strategy's objective itself needs a usable metric.
  const std::optional<double> score =
      strategy.score_path(summary, request, context);
  if (!score.has_value()) {
    sink.fail("objective-data",
              [&] { return strategy.missing_data_reason(request); });
  } else {
    sink.pass("objective-data");
  }
  return score;
}

}  // namespace

AdmissionReport check_admission(const PathSummary& summary,
                                const UserRequest& request,
                                const SelectionContext& context,
                                const PathSelectionStrategy& strategy) {
  AdmissionReport report;
  VerdictSink sink(&report);
  (void)evaluate_admission(summary, request, context, strategy, sink);
  return report;
}

std::optional<double> admitted_score(const PathSummary& summary,
                                     const UserRequest& request,
                                     const SelectionContext& context,
                                     const PathSelectionStrategy& strategy) {
  VerdictSink sink(nullptr);
  const std::optional<double> score =
      evaluate_admission(summary, request, context, strategy, sink);
  if (sink.failed()) return std::nullopt;
  return score;
}

// ---- registry -----------------------------------------------------------

util::Status StrategyRegistry::add(std::string key, Entry entry) {
  if (key.empty()) {
    return util::Error{ErrorCode::kInvalidArgument, "empty strategy key"};
  }
  if (!entry.factory) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "strategy " + key + " has no factory"};
  }
  if (find(key) != nullptr) {
    return util::Error{ErrorCode::kConflict,
                       "strategy already registered: " + key};
  }
  entries_.emplace_back(std::move(key), std::move(entry));
  return {};
}

const StrategyRegistry::Entry* StrategyRegistry::find(
    std::string_view key) const noexcept {
  for (const auto& [name, entry] : entries_) {
    if (name == key) return &entry;
  }
  return nullptr;
}

std::vector<std::string> StrategyRegistry::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

namespace {

/// kInt and kDouble knobs accept any number; everything else is strict.
bool knob_type_matches(util::Value::Type declared, const Value& value) {
  if (declared == Value::Type::kInt || declared == Value::Type::kDouble) {
    return value.is_number();
  }
  return value.type() == declared;
}

const char* knob_type_name(util::Value::Type type) {
  switch (type) {
    case Value::Type::kBool: return "bool";
    case Value::Type::kInt: return "int";
    case Value::Type::kDouble: return "number";
    case Value::Type::kString: return "string";
    case Value::Type::kArray: return "array";
    case Value::Type::kObject: return "object";
    case Value::Type::kNull: return "null";
  }
  return "?";
}

}  // namespace

Result<std::unique_ptr<PathSelectionStrategy>> StrategyRegistry::create(
    std::string_view key, const JsonObject& knobs) const {
  const Entry* entry = find(key);
  if (entry == nullptr) {
    return util::Error{ErrorCode::kNotFound,
                       "unknown strategy: " + std::string(key) +
                           " (known: " + util::join(keys(), ", ") + ")"};
  }

  // Validate the supplied knobs against the schema and fill defaults.
  JsonObject merged;
  for (const KnobSpec& spec : entry->knobs) {
    const Value* supplied = knobs.find(spec.name);
    if (supplied == nullptr) {
      merged.set(spec.name, spec.default_value);
      continue;
    }
    if (!knob_type_matches(spec.type, *supplied)) {
      return util::Error{
          ErrorCode::kInvalidArgument,
          "strategy " + std::string(key) + " knob " + spec.name +
              " expects " + knob_type_name(spec.type) + ", got " +
              supplied->type_name()};
    }
    merged.set(spec.name, *supplied);
  }
  for (const auto& [name, value] : knobs) {
    if (std::none_of(entry->knobs.begin(), entry->knobs.end(),
                     [&](const KnobSpec& spec) { return spec.name == name; })) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "strategy " + std::string(key) +
                             " has no knob named " + name};
    }
  }

  std::unique_ptr<PathSelectionStrategy> strategy = entry->factory(merged);
  if (strategy == nullptr) {
    // Factories return null to veto knob *values* the schema's type check
    // cannot express (e.g. an unknown statistic name).
    return util::Error{ErrorCode::kInvalidArgument,
                       "strategy " + std::string(key) + " rejected its knobs"};
  }
  return strategy;
}

util::Value StrategyRegistry::knob_schema(std::string_view key) const {
  const Entry* entry = find(key);
  if (entry == nullptr) return Value();
  JsonObject schema;
  for (const KnobSpec& spec : entry->knobs) {
    JsonObject knob;
    knob.set("type", Value(knob_type_name(spec.type)));
    knob.set("default", spec.default_value);
    knob.set("description", Value(spec.description));
    schema.set(spec.name, Value(std::move(knob)));
  }
  return Value(std::move(schema));
}

}  // namespace upin::select
