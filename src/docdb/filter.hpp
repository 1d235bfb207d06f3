// filter.hpp — MongoDB-style query filters.
//
// The path-selection layer (paper §6) works by querying the stats store:
// "all paths_stats for destination 2 with loss < 10 not traversing ISD 16".
// A Filter is built from a JSON query document with the familiar operator
// vocabulary and evaluated against candidate documents.
//
// Supported:
//   implicit equality         {"server_id": 2}
//   comparison                $eq $ne $gt $gte $lt $lte
//   membership                $in $nin
//   logical                   $and $or $nor $not
//   field presence            $exists
//   arrays                    $size $all $elemMatch
//   strings                   $regex (ECMAScript), $like (wildcard * ?)
//   dotted paths              {"stats.latency_ms": {"$lt": 50}}
//
// Equality against an array field also matches when the array *contains*
// the operand (Mongo semantics), which is how "paths traversing ISD 17"
// queries the `isds` array.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "docdb/document.hpp"
#include "util/result.hpp"

namespace upin::docdb {

/// Compiled query filter.  Immutable and shareable across threads.
class Filter {
 public:
  /// Compile a filter from a query document.  Unknown `$operators` and
  /// operand type mismatches are reported as kInvalidArgument.
  [[nodiscard]] static util::Result<Filter> compile(const util::Value& query);

  /// A filter that matches every document.
  [[nodiscard]] static Filter match_all();

  /// Evaluate against one document.
  [[nodiscard]] bool matches(const Document& doc) const;

  /// The equality constant this filter pins `field` to, if the filter is
  /// (a conjunction containing) a simple equality on it — used by the
  /// query planner to consult an index.
  [[nodiscard]] const util::Value* equality_on(std::string_view field) const;

  /// One index-usable predicate extracted from the top-level conjunction.
  /// Pointers view into the filter's compiled nodes and stay valid while
  /// the Filter (or any copy sharing its root) is alive.
  struct Bound {
    enum class Op { kEq, kIn, kGt, kGte, kLt, kLte };
    Op op = Op::kEq;
    const util::Value* operand = nullptr;        ///< kEq and range ops
    const std::vector<util::Value>* list = nullptr;  ///< kIn
  };

  /// Per-field extractable predicates of the top-level conjunction
  /// (nested `$and` flattened; anything under `$or`/`$nor`/`$not` is
  /// opaque to the planner).  Fields appear in first-mention order.
  [[nodiscard]] std::vector<std::pair<std::string, std::vector<Bound>>>
  extractable_bounds() const;

  /// Leaf clauses in the top-level conjunction — an `$or` subtree counts
  /// as one (unextractable) clause; match_all() counts zero.  The planner
  /// compares this against the clauses a plan consumes to decide whether
  /// the residual predicate still needs to run.
  [[nodiscard]] std::size_t clause_count() const;

  class Node;  // implementation detail, exposed for the planner

 private:
  explicit Filter(std::shared_ptr<const Node> root);
  std::shared_ptr<const Node> root_;
};

/// Total ordering across JSON values used by sorts and range operators:
/// null < bool < number < string < array < object; numbers compare
/// numerically regardless of int/double representation.
[[nodiscard]] int compare_values(const util::Value& a, const util::Value& b);

}  // namespace upin::docdb
