#include "docdb/index.hpp"

#include <algorithm>
#include <iterator>

#include "docdb/filter.hpp"

namespace upin::docdb {

using util::Value;

std::vector<std::string> split_index_spec(const std::string& spec) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) fields.push_back(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return fields;
}

std::string join_index_spec(const std::vector<std::string>& fields) {
  std::string spec;
  for (const std::string& field : fields) {
    if (!spec.empty()) spec += ',';
    spec += field;
  }
  return spec;
}

OrderedIndex::OrderedIndex(const std::string& spec)
    : OrderedIndex(split_index_spec(spec)) {}

OrderedIndex::OrderedIndex(std::vector<std::string> fields)
    : fields_(std::move(fields)), spec_(join_index_spec(fields_)) {}

bool OrderedIndex::KeyLess::operator()(const IndexKey& a,
                                       const IndexKey& b) const {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int c = compare_values(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

namespace {

/// True while `key` has not yet passed `range`'s prefix/upper edge — the
/// partition RangeEnd seeks binary-search on.  Keys equal to an inclusive
/// upper bound (and their compound extensions) are still inside.
bool before_range_end(const IndexKey& key, const OrderedIndex::Range& range) {
  const std::size_t prefix_len = range.prefix.size();
  for (std::size_t i = 0; i < prefix_len && i < key.size(); ++i) {
    const int c = compare_values(key[i], range.prefix[i]);
    if (c != 0) return c < 0;
  }
  if (key.size() <= prefix_len || range.upper == nullptr) return true;
  const int c = compare_values(key[prefix_len], *range.upper);
  if (c != 0) return c < 0;
  return range.upper_inclusive;
}

}  // namespace

bool OrderedIndex::KeyLess::operator()(const IndexKey& key,
                                       const RangeEnd& end) const {
  return before_range_end(key, *end.range);
}

bool OrderedIndex::KeyLess::operator()(const RangeEnd& end,
                                       const IndexKey& key) const {
  return !before_range_end(key, *end.range);
}

void OrderedIndex::expand_keys(const Document& doc, Expansion& out) const {
  out.element_keys.clear();
  out.self_keys.clear();
  out.missing_first = false;
  out.saw_array = false;
  out.element_keys.emplace_back();  // one empty partial key to extend
  for (std::size_t column = 0; column < fields_.size(); ++column) {
    const Value* value = doc.get_path(fields_[column]);
    const bool empty_array =
        value != nullptr && value->is_array() && value->as_array().empty();
    if ((value == nullptr || empty_array) && column == 0) {
      out.missing_first = true;
    }
    if (value != nullptr && value->is_array()) {
      out.saw_array = true;
      // Multikey: one key per distinct element.  Single-field indexes
      // also key the whole array, so exact-array equality still hits.
      if (single_field()) {
        out.self_keys.push_back(IndexKey{*value});
      }
    }
    if (value != nullptr && value->is_array() && !empty_array) {
      std::vector<IndexKey> expanded;
      for (const IndexKey& partial : out.element_keys) {
        for (const Value& element : value->as_array()) {
          IndexKey key = partial;
          key.push_back(element);
          // Skip duplicate elements ([16, 16]) — one posting per doc/key.
          if (std::find_if(expanded.begin(), expanded.end(),
                           [&](const IndexKey& seen) {
                             return !KeyLess()(seen, key) &&
                                    !KeyLess()(key, seen);
                           }) == expanded.end()) {
            expanded.push_back(std::move(key));
          }
        }
      }
      out.element_keys = std::move(expanded);
    } else {
      // Missing fields and *empty arrays* fold to null — every live doc
      // stays present in every index (the planner's no-false-negative
      // invariant), and `missing_docs_` keeps the fold out of covered
      // point plans.
      const Value folded =
          (value == nullptr || empty_array) ? Value() : *value;
      for (IndexKey& partial : out.element_keys) partial.push_back(folded);
    }
  }
}

bool OrderedIndex::first_column_shared(const PostingMap& map,
                                       PostingMap::const_iterator next,
                                       const Value& first) {
  if (next != map.end() && compare_values(next->first.front(), first) == 0) {
    return true;
  }
  return next != map.begin() &&
         compare_values(std::prev(next)->first.front(), first) == 0;
}

void OrderedIndex::posting_insert(PostingMap& map, const IndexKey& key,
                                  std::size_t position,
                                  std::size_t* distinct_first) {
  auto it = map.lower_bound(key);
  if (it == map.end() || KeyLess()(key, it->first)) {
    if (distinct_first != nullptr &&
        !first_column_shared(map, it, key.front())) {
      ++*distinct_first;
    }
    it = map.emplace_hint(it, key, std::vector<std::size_t>{});
  }
  std::vector<std::size_t>& positions = it->second;
  const auto at = std::lower_bound(positions.begin(), positions.end(), position);
  if (at == positions.end() || *at != position) positions.insert(at, position);
}

bool OrderedIndex::posting_erase(PostingMap& map, const IndexKey& key,
                                 std::size_t position,
                                 std::size_t* distinct_first) {
  const auto it = map.find(key);
  if (it == map.end()) return false;
  std::vector<std::size_t>& positions = it->second;
  const auto at = std::lower_bound(positions.begin(), positions.end(), position);
  if (at == positions.end() || *at != position) return false;
  positions.erase(at);
  if (positions.empty()) {
    const auto next = map.erase(it);
    if (distinct_first != nullptr &&
        !first_column_shared(map, next, key.front())) {
      --*distinct_first;
    }
  }
  return true;
}

void OrderedIndex::add(const Document& doc, std::size_t position) {
  Expansion keys;
  expand_keys(doc, keys);
  if (keys.missing_first) ++missing_docs_;
  if (keys.saw_array) multikey_ = true;
  std::size_t* const first = single_field() ? nullptr : &distinct_first_;
  for (const IndexKey& key : keys.element_keys) {
    posting_insert(entries_, key, position, first);
    ++entry_count_;
  }
  for (const IndexKey& key : keys.self_keys) {
    posting_insert(array_self_, key, position);
    ++entry_count_;
  }
}

void OrderedIndex::remove(const Document& doc, std::size_t position) {
  Expansion keys;
  expand_keys(doc, keys);
  if (keys.missing_first && missing_docs_ > 0) --missing_docs_;
  // multikey_ stays sticky: a once-multikey index keeps planning
  // conservatively, matching Mongo.
  std::size_t* const first = single_field() ? nullptr : &distinct_first_;
  for (const IndexKey& key : keys.element_keys) {
    if (posting_erase(entries_, key, position, first)) --entry_count_;
  }
  for (const IndexKey& key : keys.self_keys) {
    if (posting_erase(array_self_, key, position)) --entry_count_;
  }
}

void OrderedIndex::clear() noexcept {
  entries_.clear();
  array_self_.clear();
  entry_count_ = 0;
  missing_docs_ = 0;
  distinct_first_ = 0;
  multikey_ = false;
}

namespace {

/// Where `key`'s bounded column stands relative to a range window:
/// -1 below the lower bound, +1 above the upper bound, 0 inside.
int window_position(const Value& candidate, const OrderedIndex::Range& range) {
  if (range.lower != nullptr) {
    const int c = compare_values(candidate, *range.lower);
    if (c < 0 || (c == 0 && !range.lower_inclusive)) return -1;
  }
  if (range.upper != nullptr) {
    const int c = compare_values(candidate, *range.upper);
    if (c > 0 || (c == 0 && !range.upper_inclusive)) return 1;
  }
  return 0;
}

}  // namespace

void OrderedIndex::scan_map(
    const PostingMap& map, const Range& range, std::size_t columns,
    const std::function<bool(const IndexKey&, const std::vector<std::size_t>&)>&
        visit) {
  // Seek to the first key >= the prefix (+ lower bound, when given):
  // shorter keys sort before their extensions, so the partial key is a
  // valid lower bound for every key it prefixes.
  IndexKey seek = range.prefix;
  if (seek.size() < columns && range.lower != nullptr) {
    seek.push_back(*range.lower);
  }
  const std::size_t prefix_len = range.prefix.size();
  for (auto it = map.lower_bound(seek); it != map.end(); ++it) {
    const IndexKey& key = it->first;
    // Past the equality prefix? — done.
    bool beyond = false;
    for (std::size_t i = 0; i < prefix_len && i < key.size(); ++i) {
      if (compare_values(key[i], range.prefix[i]) != 0) {
        beyond = true;
        break;
      }
    }
    if (beyond) break;
    if (prefix_len < key.size()) {
      const int window = window_position(key[prefix_len], range);
      if (window < 0) continue;  // exclusive lower bound edge
      if (window > 0) break;     // keys only grow from here
    }
    if (!visit(key, it->second)) return;
  }
}

void OrderedIndex::collect(const Range& range,
                           std::vector<std::size_t>& out) const {
  const auto take = [&out](const IndexKey&,
                           const std::vector<std::size_t>& positions) {
    out.insert(out.end(), positions.begin(), positions.end());
    return true;
  };
  scan_map(entries_, range, fields_.size(), take);
  if (!array_self_.empty()) {
    scan_map(array_self_, range, fields_.size(), take);
  }
}

void OrderedIndex::scan(
    const Range& range, bool descending,
    const std::function<bool(const IndexKey&, const std::vector<std::size_t>&)>&
        visit) const {
  if (!descending) {
    scan_map(entries_, range, fields_.size(), visit);
    return;
  }
  // Descending: seek one past the last in-range key, then walk the map
  // backwards until the lower edge.  Positions inside one key stay
  // ascending: the scan path's stable sort keeps insertion order among
  // ties too.
  const std::size_t prefix_len = range.prefix.size();
  const auto stop = entries_.upper_bound(RangeEnd{&range});
  for (auto it = std::make_reverse_iterator(stop); it != entries_.rend();
       ++it) {
    const IndexKey& key = it->first;
    bool beyond = false;
    for (std::size_t i = 0; i < prefix_len && i < key.size(); ++i) {
      if (compare_values(key[i], range.prefix[i]) != 0) {
        beyond = true;
        break;
      }
    }
    if (beyond) break;  // walked below the equality prefix — done
    if (prefix_len < key.size()) {
      const int window = window_position(key[prefix_len], range);
      if (window > 0) continue;  // inclusive-edge seek slack
      if (window < 0) break;     // keys only shrink from here
    }
    if (!visit(key, it->second)) return;
  }
}

std::size_t OrderedIndex::count_in_range(const Range& range) const {
  if (!multikey_) {
    std::size_t total = 0;
    scan_map(entries_, range, fields_.size(),
             [&](const IndexKey&, const std::vector<std::size_t>& positions) {
               total += positions.size();
               return true;
             });
    return total;
  }
  // Multikey: one document can appear under several keys — dedup.
  std::vector<std::size_t> positions;
  collect(range, positions);
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  return positions.size();
}

}  // namespace upin::docdb
