// index.hpp — ordered secondary indexes.
//
// The selection layer's queries (paper §6: "all paths_stats for
// destination 2 with loss < 10 not traversing ISD 16") are equality and
// range predicates over a million-document stats store.  An OrderedIndex
// keeps one sorted posting map per user-declared key — single or compound
// dotted fields — under the same `compare_values` total order the filter
// language uses, so the planner (collection.cpp) can turn `$eq`/`$in`/
// `$gt`/`$lt` conjunctions into O(log n) range scans instead of O(n)
// collection scans (ablation: bench/ablation_query).
//
// Semantics, chosen to mirror the scan path exactly:
//  * A document missing an indexed field is keyed as null — the same
//    value the scan-side sort comparator substitutes — so every live
//    document appears in every index and index-order traversal matches
//    `sort_by` order (ties broken by insertion position in both paths).
//  * Array fields are multikey (one entry per element, Mongo-style), and
//    single-field indexes additionally key the whole array so exact-array
//    equality stays answerable.  Once an array value has been seen the
//    index reports multikey() and the planner stops intersecting range
//    bounds (any-element semantics make intersections unsound).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "docdb/document.hpp"

namespace upin::docdb {

/// One index key: the document's value in each declared column, in
/// declaration order.  Missing fields are folded to null.
using IndexKey = std::vector<util::Value>;

/// Ordered secondary index over one or more dotted fields.  Postings map
/// keys (lexicographic `compare_values` order) to the slot positions of
/// the documents holding them, kept sorted ascending = insertion order.
class OrderedIndex {
 public:
  /// Single-field index ("path_id") or compound via a comma-separated
  /// spec ("path_id,timestamp_ms").
  explicit OrderedIndex(const std::string& spec);
  explicit OrderedIndex(std::vector<std::string> fields);

  /// Declared columns, in order.
  [[nodiscard]] const std::vector<std::string>& fields() const noexcept {
    return fields_;
  }
  /// Canonical comma-joined declaration ("path_id,timestamp_ms").
  [[nodiscard]] const std::string& spec() const noexcept { return spec_; }
  [[nodiscard]] bool single_field() const noexcept {
    return fields_.size() == 1;
  }
  /// Sticky: true once any indexed value was an array.  Multikey indexes
  /// cannot stream sorts or intersect range bounds soundly.
  [[nodiscard]] bool multikey() const noexcept { return multikey_; }
  /// True when some indexed document lacks the first column entirely
  /// (its null key entry is a fold, not a stored null).
  [[nodiscard]] bool has_missing() const noexcept { return missing_docs_ > 0; }

  /// Index `doc` stored at `position`.
  void add(const Document& doc, std::size_t position);
  /// Remove `doc` previously stored at `position`.
  void remove(const Document& doc, std::size_t position);
  /// Clear the index entirely (keeps the declaration).
  void clear() noexcept;

  /// Distinct keys currently present (element entries only).
  [[nodiscard]] std::size_t distinct_keys() const noexcept {
    return entries_.size();
  }
  /// Distinct first-column values among those keys — the planner's
  /// selectivity for a one-column prefix of a compound index.  Equals
  /// distinct_keys() for a single-field index.
  [[nodiscard]] std::size_t distinct_first() const noexcept {
    return single_field() ? entries_.size() : distinct_first_;
  }
  /// Total posting entries across all keys — the `upin_index_entries`
  /// figure; >= live documents for multikey indexes.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entry_count_;
  }

  /// One contiguous key range: equality on the leading `prefix` columns,
  /// then an optional [lower, upper] window on the next column.  Null
  /// pointers mean unbounded on that side.
  struct Range {
    std::vector<util::Value> prefix;
    const util::Value* lower = nullptr;
    bool lower_inclusive = true;
    const util::Value* upper = nullptr;
    bool upper_inclusive = true;

    /// Point range: every column pinned (prefix covers all fields, or a
    /// degenerate lower==upper inclusive window).
    [[nodiscard]] bool is_point(std::size_t columns) const noexcept {
      return prefix.size() >= columns;
    }
  };

  /// Append every position whose key falls in `range` to `out`
  /// (duplicates across keys possible for multikey — callers dedup).
  /// Whole-array synthetic entries are included, so equality against an
  /// exact array value still hits.
  void collect(const Range& range, std::vector<std::size_t>& out) const;

  /// Walk keys in `range` in key order (descending reverses key order;
  /// positions within one key stay ascending = insertion order, matching
  /// the scan path's stable sort).  Return false from `visit` to stop.
  /// Only meaningful for planning when !multikey(): multikey documents
  /// appear under several keys.
  void scan(const Range& range, bool descending,
            const std::function<bool(const IndexKey& key,
                                     const std::vector<std::size_t>& positions)>&
                visit) const;

  /// Number of positions (deduplicated) in `range` — covered count.
  [[nodiscard]] std::size_t count_in_range(const Range& range) const;

 private:
  /// Heterogeneous-lookup sentinel: sorts just after the last key inside
  /// `range`'s prefix/upper region, letting the descending scan seek its
  /// end point in O(log n) instead of materializing the whole range.
  struct RangeEnd {
    const Range* range;
  };
  struct KeyLess {
    using is_transparent = void;
    bool operator()(const IndexKey& a, const IndexKey& b) const;
    bool operator()(const IndexKey& key, const RangeEnd& end) const;
    bool operator()(const RangeEnd& end, const IndexKey& key) const;
  };
  using PostingMap = std::map<IndexKey, std::vector<std::size_t>, KeyLess>;

  /// Keys this document contributes: element-expanded keys for
  /// `entries_` (cartesian over array elements; missing -> null) and,
  /// for single-field arrays, whole-array keys for `array_self_`.
  struct Expansion {
    std::vector<IndexKey> element_keys;
    std::vector<IndexKey> self_keys;
    bool missing_first = false;  ///< first column absent from the doc
    bool saw_array = false;      ///< any column held an array value
  };
  void expand_keys(const Document& doc, Expansion& out) const;
  /// Insert/erase one posting.  With `distinct_first` given, keep that
  /// count of distinct first-column values exact: a key that appears or
  /// disappears changes it only when neither map neighbour shares the
  /// key's first column (one lower_bound, two neighbour compares).
  static void posting_insert(PostingMap& map, const IndexKey& key,
                             std::size_t position,
                             std::size_t* distinct_first = nullptr);
  static bool posting_erase(PostingMap& map, const IndexKey& key,
                            std::size_t position,
                            std::size_t* distinct_first = nullptr);
  /// Whether the key at `next` or the one before it starts with `first`.
  static bool first_column_shared(const PostingMap& map,
                                  PostingMap::const_iterator next,
                                  const util::Value& first);
  /// Iterate one map's entries inside `range`; false from visit stops.
  static void scan_map(const PostingMap& map, const Range& range,
                       std::size_t columns,
                       const std::function<bool(const IndexKey&,
                                                const std::vector<std::size_t>&)>&
                           visit);

  std::vector<std::string> fields_;
  std::string spec_;
  PostingMap entries_;     ///< element-expanded keys
  PostingMap array_self_;  ///< whole-array keys (single-field multikey)
  std::size_t entry_count_ = 0;
  std::size_t missing_docs_ = 0;  ///< docs missing the first column
  std::size_t distinct_first_ = 0;  ///< compound indexes only
  bool multikey_ = false;
};

/// Split a comma-separated index declaration into its columns.
[[nodiscard]] std::vector<std::string> split_index_spec(
    const std::string& spec);
/// Canonical comma-joined form.
[[nodiscard]] std::string join_index_spec(
    const std::vector<std::string>& fields);

}  // namespace upin::docdb
