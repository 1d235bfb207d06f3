// selector.hpp — query the measurement database and pick paths.
//
// The selection pipeline of paper §6: aggregate paths_stats per path into
// summaries (box statistics over latency, mean loss, mean bandwidths),
// drop paths violating the user's constraints (performance + sovereignty),
// rank the survivors under the chosen objective, and return them with a
// rationale.
//
// Since the strategy-lab redesign, PathSelector is a thin façade over the
// StrategyRegistry: `select()` delegates to the `paper-objective`
// strategy (bit-identical to the pre-registry pipeline) and
// `select_with()` runs any registered strategy over the same summaries.
// The data model (PathSummary, RankedPath, Selection) lives in
// select/types.hpp; the strategy interface in select/strategy.hpp.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "docdb/database.hpp"
#include "scion/control_plane.hpp"
#include "scion/topology.hpp"
#include "select/request.hpp"
#include "select/strategy.hpp"
#include "select/types.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"

namespace upin::select {

/// Read-side engine over the measurement database.
class PathSelector {
 public:
  /// `topology` supplies the AS metadata for sovereignty filters.
  PathSelector(const docdb::Database& db, const scion::Topology& topology);

  /// Attach control-plane liveness: selections made after this reject
  /// paths whose revocation was delivered by `clock->now()`.  Both
  /// pointers must outlive the selector; pass nullptrs to detach.
  void attach_liveness(const scion::ControlPlane* control_plane,
                       const util::VirtualClock* clock) noexcept {
    control_plane_ = control_plane;
    liveness_clock_ = clock;
  }

  /// Aggregate every measured path of `server_id`.  When `since_ms` is
  /// set, only measurements taken at or after that virtual timestamp
  /// contribute (freshness window).
  [[nodiscard]] util::Result<std::vector<PathSummary>> summarize(
      int server_id, std::optional<std::int64_t> since_ms = std::nullopt) const;

  /// Full selection under a request — the `paper-objective` strategy.
  [[nodiscard]] util::Result<Selection> select(const UserRequest& request) const;

  /// Full selection under any registered strategy: summarize, then rank
  /// with `StrategyRegistry::global().create(strategy_key, knobs)`.
  /// Propagates kNotFound for unknown keys and kInvalidArgument for bad
  /// knobs.
  [[nodiscard]] util::Result<Selection> select_with(
      std::string_view strategy_key, const UserRequest& request,
      const util::JsonObject& knobs = {}) const;

  /// The single best path, or kNotFound when nothing qualifies.
  [[nodiscard]] util::Result<RankedPath> best(const UserRequest& request) const;

  /// The selection context this selector ranks in (topology + attached
  /// liveness), for callers driving strategies directly.
  [[nodiscard]] SelectionContext context() const noexcept {
    return SelectionContext{&topology_, control_plane_, liveness_clock_};
  }

  /// Constraint check used by select(); exposed for tests.  Returns the
  /// rejection reason or nullopt when admissible.
  [[nodiscard]] std::optional<std::string> rejection_reason(
      const PathSummary& summary, const UserRequest& request) const;

 private:
  const docdb::Database& db_;
  const scion::Topology& topology_;
  const scion::ControlPlane* control_plane_ = nullptr;
  const util::VirtualClock* liveness_clock_ = nullptr;
};

}  // namespace upin::select
