// filter.hpp — MongoDB-style query filters.
//
// The path-selection layer (paper §6) works by querying the stats store:
// "all paths_stats for destination 2 with loss < 10 not traversing ISD 16".
// A Filter is built from a JSON query document and evaluated against
// candidate documents.  It is a flat conjunction: every top-level key
// names a field, and every predicate on every field must hold.
//
// Supported:
//   implicit equality         {"server_id": 2}
//   comparison                $eq $ne $gt $gte $lt $lte
//   membership                $in $nin
//   dotted paths              {"stats.latency_ms": {"$lt": 50}}
//
// Equality against an array field also matches when the array *contains*
// the operand (Mongo semantics), which is how "paths traversing ISD 17"
// queries the `isds` array; ranges on an array field match when any
// element is in range.
#pragma once

#include <string>
#include <vector>

#include "docdb/document.hpp"
#include "util/result.hpp"

namespace upin::docdb {

/// Compiled query filter.  Immutable and shareable across threads.
class Filter {
 public:
  enum class Op { kEq, kNe, kGt, kGte, kLt, kLte, kIn, kNin };

  /// One operator applied to a field; `$in`/`$nin` hold the array itself.
  struct Predicate {
    Op op = Op::kEq;
    util::Value operand;
  };

  /// All predicates on one dotted path, in query order.
  struct Field {
    std::string path;
    std::vector<Predicate> predicates;
  };

  /// Compile a filter from a query document.  Unknown `$operators` and
  /// non-array `$in`/`$nin` operands are reported as kInvalidArgument.
  [[nodiscard]] static util::Result<Filter> compile(const util::Value& query);

  /// A filter that matches every document.
  [[nodiscard]] static Filter match_all();

  /// Evaluate against one document.
  [[nodiscard]] bool matches(const Document& doc) const;

  /// The conjunction's fields in query order — what the planner reads.
  [[nodiscard]] const std::vector<Field>& fields() const noexcept {
    return fields_;
  }

  /// Predicates in the conjunction; match_all() counts zero.  The planner
  /// compares this against the predicates a plan consumes to decide
  /// whether the residual predicate still needs to run.
  [[nodiscard]] std::size_t clause_count() const noexcept;

 private:
  Filter() = default;
  std::vector<Field> fields_;
};

/// Total ordering across JSON values used by sorts and range operators:
/// null < bool < number < string < array < object; numbers compare
/// numerically regardless of int/double representation.
[[nodiscard]] int compare_values(const util::Value& a, const util::Value& b);

}  // namespace upin::docdb
