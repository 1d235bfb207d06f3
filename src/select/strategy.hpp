// strategy.hpp — pluggable path-selection strategies.
//
// The paper's §6 selection pipeline is one fixed objective; the strategy
// lab makes selection policies first-class: a PathSelectionStrategy maps
// (summaries, request, context) to a Selection, and a string-keyed
// StrategyRegistry creates strategies from factories with per-strategy
// JSON knob schemas.  Every strategy enforces the request's hard
// constraints (performance bounds + sovereignty, the axiomatic
// invariants) identically; they differ in how the admitted survivors are
// scored and ordered.
//
// Shipped strategies:
//   paper-objective   — the paper's §6 pipeline, bit-identical to the
//                       pre-registry PathSelector::select
//   latency-greedy    — a configurable latency box statistic, nothing else
//   loss-averse       — loss first, latency/jitter as smooth penalties
//   geo-constrained   — sovereignty hard filter + great-circle geography
//   disjointness-max  — greedy hop-set anti-affinity over the best paths
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "select/request.hpp"
#include "select/types.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace upin::scion {
class ControlPlane;
class Topology;
}  // namespace upin::scion

namespace upin::util {
class VirtualClock;
}  // namespace upin::util

namespace upin::select {

/// Environment a strategy ranks in: AS metadata for sovereignty and
/// geography, plus optional control-plane liveness.  All pointers are
/// borrowed and may be null (null topology disables sovereignty and
/// geography; null control plane disables liveness rejection).
struct SelectionContext {
  const scion::Topology* topology = nullptr;
  const scion::ControlPlane* control_plane = nullptr;
  const util::VirtualClock* clock = nullptr;  ///< required with control_plane
};

/// A path-selection policy.  `rank` is the full pipeline (admission +
/// scoring + ordering); `score_path` exposes the per-path objective score
/// (lower = better, nullopt when the path lacks the data the strategy
/// needs) for explain traces and multipath weighting.
class PathSelectionStrategy {
 public:
  virtual ~PathSelectionStrategy() = default;

  [[nodiscard]] virtual std::string_view key() const noexcept = 0;

  [[nodiscard]] virtual Selection rank(std::span<const PathSummary> paths,
                                       const UserRequest& request,
                                       const SelectionContext& context) const = 0;

  [[nodiscard]] virtual std::optional<double> score_path(
      const PathSummary& summary, const UserRequest& request,
      const SelectionContext& context) const = 0;

  /// Rejection text when `score_path` has no data for a path.  The paper
  /// strategy overrides this to keep its legacy wording bit-identical.
  [[nodiscard]] virtual std::string missing_data_reason(
      const UserRequest& request) const;
};

/// Declared knob of a strategy (the JSON schema entry).  Knob values are
/// validated against `type` (kInt also accepts being read as a double
/// knob and vice versa — numbers are interchangeable).
struct KnobSpec {
  std::string name;
  util::Value::Type type = util::Value::Type::kDouble;
  util::Value default_value;
  std::string description;
};

/// String-keyed registry of strategy factories.  `global()` comes
/// pre-populated with the five shipped strategies; workloads register
/// their own with `add`.  Registration is not thread-safe; `create` and
/// the read accessors are (they never mutate).
class StrategyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<PathSelectionStrategy>(
      const util::JsonObject& knobs)>;

  struct Entry {
    std::string description;
    std::vector<KnobSpec> knobs;
    Factory factory;
  };

  /// The process-wide registry with the built-in strategies.
  [[nodiscard]] static StrategyRegistry& global();

  /// Register a strategy; kConflict on a duplicate key, kInvalidArgument
  /// on an empty key or missing factory.
  util::Status add(std::string key, Entry entry);

  /// Instantiate `key` with `knobs` validated against its schema:
  /// unknown knob names and type mismatches are kInvalidArgument;
  /// unspecified knobs take their declared defaults.
  [[nodiscard]] util::Result<std::unique_ptr<PathSelectionStrategy>> create(
      std::string_view key, const util::JsonObject& knobs = {}) const;

  [[nodiscard]] const Entry* find(std::string_view key) const noexcept;

  /// Registered keys in registration order (built-ins first).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// JSON schema of a strategy's knobs: `{knob: {type, default,
  /// description}}`, or null for an unknown key.
  [[nodiscard]] util::Value knob_schema(std::string_view key) const;

 private:
  std::vector<std::pair<std::string, Entry>> entries_;
};

// Registry keys of the shipped strategies.
inline constexpr std::string_view kPaperObjective = "paper-objective";
inline constexpr std::string_view kLatencyGreedy = "latency-greedy";
inline constexpr std::string_view kLossAverse = "loss-averse";
inline constexpr std::string_view kGeoConstrained = "geo-constrained";
inline constexpr std::string_view kDisjointnessMax = "disjointness-max";

/// The bandwidth figure the request's constraint and objective refer to:
/// the MTU columns by default, the packet-size-aware lookup when the
/// request sets `bw_probe_bytes`.
[[nodiscard]] std::optional<double> request_bandwidth(
    const PathSummary& summary, const UserRequest& request);

/// The paper's §6 objective score (lower = better).
[[nodiscard]] std::optional<double> paper_objective_score(
    const PathSummary& summary, const UserRequest& request);

/// Admission outcome for one path under one strategy: the first failed
/// constraint's detail (nullopt when admissible) plus every evaluated
/// verdict, in evaluation order, for explain traces.
struct AdmissionReport {
  std::optional<std::string> rejection;
  std::vector<ConstraintVerdict> verdicts;
};

/// Evaluate the request's hard constraints (shared by every strategy —
/// the sovereignty filter is an invariant, not a preference) plus the
/// strategy's own data requirement.
[[nodiscard]] AdmissionReport check_admission(
    const PathSummary& summary, const UserRequest& request,
    const SelectionContext& context, const PathSelectionStrategy& strategy);

/// The same constraint sequence as check_admission, recording nothing:
/// the strategy's score when every constraint passes, nullopt when one
/// fails.  It keeps no verdicts and formats no details, so admitting a
/// path costs only the checks themselves; a caller that needs the
/// reasons for a rejection asks check_admission for them.
[[nodiscard]] std::optional<double> admitted_score(
    const PathSummary& summary, const UserRequest& request,
    const SelectionContext& context, const PathSelectionStrategy& strategy);

}  // namespace upin::select
