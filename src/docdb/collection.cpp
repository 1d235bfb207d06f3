#include "docdb/collection.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "docdb/database.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace upin::docdb {

using util::ErrorCode;
using util::Result;
using util::Status;
using util::Value;

namespace {

/// Planner instrumentation, resolved once.  The registry has no label
/// support, so the plan-kind label is spelled as a name suffix.
struct QueryMetrics {
  obs::Counter& plans_scan;
  obs::Counter& plans_index_point;
  obs::Counter& plans_index_range;
  obs::Gauge& index_entries;
  obs::LatencyHistogram& planner_latency_us;

  static QueryMetrics& get() {
    static QueryMetrics metrics{
        obs::Registry::global().counter("upin_query_plans_scan_total"),
        obs::Registry::global().counter("upin_query_plans_index_point_total"),
        obs::Registry::global().counter("upin_query_plans_index_range_total"),
        obs::Registry::global().gauge("upin_index_entries"),
        obs::Registry::global().histogram("upin_query_planner_latency_us", 0.0,
                                          500.0, 50)};
    return metrics;
  }
};

bool contains_object(const Value& value) {
  if (value.is_object()) return true;
  if (value.is_array()) {
    for (const Value& element : value.as_array()) {
      if (contains_object(element)) return true;
    }
  }
  return false;
}

/// Whether an $eq/$in operand can be answered through index keys.
/// Equality through the index needs `compare_values() == 0` to coincide
/// with the filter's deep equality, which object operands break (their
/// order-sensitive key serialization vs the order-insensitive ==).
/// Array operands only match whole-array keys, which compound columns
/// don't keep.
bool key_usable(const Value& operand, const OrderedIndex& index) {
  if (contains_object(operand)) return false;
  return !operand.is_array() || index.single_field();
}

struct CandidatePlan {
  QueryPlan plan;
  bool usable = false;
};

/// Build the best plan one index can offer for the filter's predicates:
/// consume equalities into a key prefix left to right, then terminate
/// with either one `$in` fan-out or one range window.  `$ne`/`$nin`
/// never consume a column; they stay in the residual.
CandidatePlan build_index_plan(const OrderedIndex& index,
                               const Filter& filter) {
  using Op = Filter::Op;
  using Predicate = Filter::Predicate;
  CandidatePlan out;
  const std::size_t columns = index.fields().size();

  std::vector<Value> prefix;
  const Value::Array* in_list = nullptr;
  const Value* lower = nullptr;
  const Value* upper = nullptr;
  bool lower_inclusive = true;
  bool upper_inclusive = true;
  std::size_t consumed = 0;
  // True when candidates may include documents the consumed clauses
  // reject — the plan then stays residual even if it consumed everything.
  bool dirty = false;

  // Missing-field documents fold onto the null key, which the scan path
  // never matches with eq/range/$in — a constraint admitting null can
  // therefore pick up documents the scan rejects.  Only the first
  // column's folds are tracked, so later columns are conservative.
  const auto null_dirty = [&](std::size_t column) {
    return column > 0 || index.has_missing();
  };

  for (std::size_t column = 0; column < columns; ++column) {
    const std::vector<Predicate>* predicates = nullptr;
    for (const Filter::Field& field : filter.fields()) {
      if (field.path == index.fields()[column]) {
        predicates = &field.predicates;
        break;
      }
    }
    if (predicates == nullptr) break;

    // Equality pins this column and extends the prefix.
    const Value* eq = nullptr;
    for (const Predicate& predicate : *predicates) {
      if (predicate.op == Op::kEq && key_usable(predicate.operand, index)) {
        eq = &predicate.operand;
        break;
      }
    }
    if (eq != nullptr) {
      // An array operand never contains-matches (filter semantics), but
      // element-expanded keys would surface such documents.
      if (eq->is_array()) dirty = true;
      if (eq->is_null() && null_dirty(column)) dirty = true;
      prefix.push_back(*eq);
      ++consumed;
      continue;
    }

    // $in fans out into one point range per element; terminal.
    for (const Predicate& predicate : *predicates) {
      if (predicate.op != Op::kIn) continue;
      const Value::Array& list = predicate.operand.as_array();
      bool ok = true;
      for (const Value& element : list) {
        if (!key_usable(element, index)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      in_list = &list;
      ++consumed;
      for (const Value& element : list) {
        if (element.is_array()) dirty = true;
        if (element.is_null() && null_dirty(column)) dirty = true;
      }
      break;
    }
    if (in_list != nullptr) break;

    // Range window on this column; terminal.  Keep the tightest bound
    // per side — the looser clauses are implied, hence consumed too.
    std::size_t lower_clauses = 0;
    std::size_t upper_clauses = 0;
    for (const Predicate& predicate : *predicates) {
      switch (predicate.op) {
        case Op::kGt:
        case Op::kGte: {
          ++lower_clauses;
          const bool inclusive = predicate.op == Op::kGte;
          const int c =
              lower == nullptr ? 1 : compare_values(predicate.operand, *lower);
          if (c > 0 || (c == 0 && !inclusive)) {
            lower = &predicate.operand;
            lower_inclusive = inclusive;
          }
          break;
        }
        case Op::kLt:
        case Op::kLte: {
          ++upper_clauses;
          const bool inclusive = predicate.op == Op::kLte;
          const int c =
              upper == nullptr ? -1 : compare_values(predicate.operand, *upper);
          if (c < 0 || (c == 0 && !inclusive)) {
            upper = &predicate.operand;
            upper_inclusive = inclusive;
          }
          break;
        }
        default: break;
      }
    }
    if (lower == nullptr && upper == nullptr) break;
    if (index.multikey()) {
      // Whole-array keys sort by type order, so an array with no element
      // inside the window can still land in it (e.g. [1,2] > 9).  The
      // residual predicate restores any-element semantics.
      dirty = true;
    }
    if (index.multikey() && lower != nullptr && upper != nullptr) {
      // Any-element semantics: one element may satisfy the lower bound
      // and a *different* one the upper ([-5, 100] matches $gt:0,$lt:10),
      // so intersecting the bounds loses matches.  Keep the lower only.
      upper = nullptr;
      upper_clauses = 0;
    }
    if (lower != nullptr) consumed += lower_clauses;
    if (upper != nullptr) consumed += upper_clauses;
    if ((lower == nullptr || (lower->is_null() && lower_inclusive)) &&
        null_dirty(column)) {
      dirty = true;
    }
    break;
  }

  if (consumed == 0) return out;
  out.usable = true;

  QueryPlan& plan = out.plan;
  plan.index = &index;
  plan.consumed_clauses = consumed;
  plan.total_clauses = filter.clause_count();
  plan.residual = consumed < plan.total_clauses || dirty;

  if (in_list != nullptr) {
    // One point range per distinct element, ascending — the order a
    // covering sort streams in; deduped so no document repeats.
    std::vector<const Value*> elements;
    elements.reserve(in_list->size());
    for (const Value& element : *in_list) elements.push_back(&element);
    std::sort(elements.begin(), elements.end(),
              [](const Value* a, const Value* b) {
                return compare_values(*a, *b) < 0;
              });
    elements.erase(std::unique(elements.begin(), elements.end(),
                               [](const Value* a, const Value* b) {
                                 return compare_values(*a, *b) == 0;
                               }),
                   elements.end());
    plan.ranges.reserve(elements.size());
    for (const Value* element : elements) {
      OrderedIndex::Range range;
      range.prefix = prefix;
      range.prefix.push_back(*element);
      plan.ranges.push_back(std::move(range));
    }
  } else {
    OrderedIndex::Range range;
    range.prefix = std::move(prefix);
    range.lower = lower;
    range.lower_inclusive = lower_inclusive;
    range.upper = upper;
    range.upper_inclusive = upper_inclusive;
    plan.ranges.push_back(std::move(range));
  }

  bool all_points = true;
  for (const OrderedIndex::Range& range : plan.ranges) {
    if (!range.is_point(columns)) {
      all_points = false;
      break;
    }
  }
  plan.kind = all_points ? QueryPlan::Kind::kIndexPoint
                         : QueryPlan::Kind::kIndexRange;

  // Selectivity estimate: entries/distinct per fully-pinned key, and
  // entries/distinct-first-values for a one-column prefix (the index
  // counts those exactly).  Deeper partial prefixes assume evenly split
  // key populations and windows a fixed fraction — crude, but it only
  // has to rank plans.
  const auto at_least_one = [](std::size_t n) {
    return static_cast<double>(std::max<std::size_t>(1, n));
  };
  const double entries = static_cast<double>(index.entry_count());
  const double distinct = at_least_one(index.distinct_keys());
  const std::size_t pinned =
      plan.ranges.empty() ? columns : plan.ranges.front().prefix.size();
  double per_range;
  if (pinned >= columns) {
    per_range = entries / distinct;
  } else {
    double fraction = 1.0;
    if (pinned == 1) {
      fraction /= at_least_one(index.distinct_first());
    } else if (pinned > 1) {
      fraction /= std::pow(distinct, static_cast<double>(pinned) /
                                         static_cast<double>(columns));
    }
    if (lower != nullptr && upper != nullptr) {
      fraction /= 3.0;
    } else if (lower != nullptr || upper != nullptr) {
      fraction /= 2.0;
    }
    per_range = entries * fraction;
  }
  plan.estimated_candidates =
      per_range * static_cast<double>(plan.ranges.size());
  return out;
}

}  // namespace

Collection::Collection(std::string name, Journal* journal,
                       std::shared_mutex* write_gate)
    : name_(std::move(name)), journal_(journal), write_gate_(write_gate) {}

Collection::~Collection() {
  // Keep the process-wide gauge honest when a database (reopen, test,
  // bench) tears down: back out this collection's live index entries.
  std::int64_t entries = 0;
  for (const auto& index : indexes_) {
    entries += static_cast<std::int64_t>(index->entry_count());
  }
  if (entries != 0) QueryMetrics::get().index_entries.add(-entries);
}

std::size_t Collection::size() const {
  const std::shared_lock lock(mutex_);
  return id_to_slot_.size();
}

void Collection::enqueue_locked(std::string payload, std::uint64_t& last_seq) {
  // A rejected frame (pipeline stopped) is logged by the journal.
  if (const std::uint64_t seq = journal_->enqueue(std::move(payload))) {
    last_seq = seq;
  }
}

Status wait_durable(Journal& journal, std::uint64_t seq) {
  Status flushed = journal.sync(seq);
  if (!flushed.ok()) {
    util::Log::error("journal sync failed: " + flushed.error().message);
    flushed = Status(ErrorCode::kDataLoss,
                     "journal sync failed: " + flushed.error().message);
  }
  return flushed;
}

Status Collection::sync_journal(std::uint64_t last_seq) const {
  if (last_seq == 0 || DeferredSync::defers(journal_)) {
    return Status::success();
  }
  return wait_durable(*journal_, last_seq);
}

Status Collection::check_journal_open() const {
  if (journal_ == nullptr || !journal_->closed()) return Status::success();
  return Status(ErrorCode::kDataLoss,
                "journal closed (failed compaction); " + name_ +
                    " mutation refused");
}

std::shared_lock<std::shared_mutex> Collection::gate_lock() const {
  return write_gate_ == nullptr ? std::shared_lock<std::shared_mutex>()
                                : std::shared_lock(*write_gate_);
}

void Collection::index_add_locked(OrderedIndex& index, const Document& doc,
                                  std::size_t position) {
  const std::size_t before = index.entry_count();
  index.add(doc, position);
  QueryMetrics::get().index_entries.add(
      static_cast<std::int64_t>(index.entry_count()) -
      static_cast<std::int64_t>(before));
}

void Collection::index_remove_locked(OrderedIndex& index, const Document& doc,
                                     std::size_t position) {
  const std::size_t before = index.entry_count();
  index.remove(doc, position);
  QueryMetrics::get().index_entries.add(
      static_cast<std::int64_t>(index.entry_count()) -
      static_cast<std::int64_t>(before));
}

Result<std::string> Collection::prepare_document(Document& doc) {
  if (!doc.is_object()) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "document must be a JSON object"};
  }
  const Value* id_value = doc.get(kIdField);
  std::string id;
  if (id_value == nullptr) {
    id = "doc_" + std::to_string(
                      next_auto_id_.fetch_add(1, std::memory_order_relaxed));
    doc[kIdField] = Value(id);
  } else if (id_value->is_string()) {
    id = id_value->as_string();
  } else {
    return util::Error{ErrorCode::kInvalidArgument, "_id must be a string"};
  }
  return id;
}

void Collection::insert_locked(Document doc, const std::string& id) {
  const std::size_t position = slots_.size();
  slots_.push_back(Slot{std::move(doc), true});
  id_to_slot_.emplace(id, position);
  for (const auto& index : indexes_) {
    index_add_locked(*index, slots_[position].doc, position);
  }
}

Result<std::string> Collection::insert_one(Document doc) {
  Result<std::string> id = prepare_document(doc);
  if (!id.ok()) return id;
  // Encode the journal payload once, before the lock (§4.2.2: the write
  // path must not serialize the survey on storage encoding).
  const bool journaling = journaled();
  std::string payload;
  if (journaling) payload = Journal::encode_insert(name_, id.value(), doc);

  std::uint64_t last_seq = 0;
  {
    const std::shared_lock gate = gate_lock();
    if (const Status open = check_journal_open(); !open.ok()) {
      return Result<std::string>(open.error());
    }
    const std::unique_lock lock(mutex_);
    if (id_to_slot_.contains(id.value())) {
      return util::Error{ErrorCode::kConflict,
                         "duplicate _id: " + id.value()};
    }
    insert_locked(std::move(doc), id.value());
    if (journaling) enqueue_locked(std::move(payload), last_seq);
  }
  const Status durable = sync_journal(last_seq);
  if (!durable.ok()) return Result<std::string>(durable.error());
  return id;
}

Result<std::vector<std::string>> Collection::insert_many(
    std::vector<Document> docs) {
  // Validate the whole batch first (atomicity): ids must be well-formed
  // and unique within the batch — a transient hash set keeps paper-scale
  // batches O(n) instead of the old O(n²) scan.
  std::vector<std::string> ids;
  ids.reserve(docs.size());
  std::unordered_set<std::string_view> batch_ids;
  batch_ids.reserve(docs.size());
  for (Document& doc : docs) {
    Result<std::string> id = prepare_document(doc);
    if (!id.ok()) return Result<std::vector<std::string>>(id.error());
    ids.push_back(std::move(id).value());
    // Views into `ids` stay valid: the vector was reserved to full size.
    if (!batch_ids.insert(ids.back()).second) {
      return util::Error{ErrorCode::kConflict,
                         "duplicate _id within batch: " + ids.back()};
    }
  }

  // One journal encode per document, outside the collection lock.
  std::vector<std::string> payloads;
  if (journaled()) {
    payloads.reserve(docs.size());
    for (std::size_t i = 0; i < docs.size(); ++i) {
      payloads.push_back(Journal::encode_insert(name_, ids[i], docs[i]));
    }
  }

  std::uint64_t last_seq = 0;
  {
    const std::shared_lock gate = gate_lock();
    if (const Status open = check_journal_open(); !open.ok()) {
      return Result<std::vector<std::string>>(open.error());
    }
    const std::unique_lock lock(mutex_);
    for (const std::string& id : ids) {
      if (id_to_slot_.contains(id)) {
        return util::Error{ErrorCode::kConflict, "duplicate _id: " + id};
      }
    }
    for (std::size_t i = 0; i < docs.size(); ++i) {
      if (!payloads.empty()) enqueue_locked(std::move(payloads[i]), last_seq);
      insert_locked(std::move(docs[i]), ids[i]);
    }
  }
  // One durability wait for the whole batch (§4.2.2 trade-off).
  const Status durable = sync_journal(last_seq);
  if (!durable.ok()) {
    return Result<std::vector<std::string>>(durable.error());
  }
  return ids;
}

Result<Document> Collection::find_by_id(std::string_view id) const {
  const std::shared_lock lock(mutex_);
  const auto it = id_to_slot_.find(std::string(id));
  if (it == id_to_slot_.end()) {
    return util::Error{ErrorCode::kNotFound,
                       "no document with _id " + std::string(id)};
  }
  return slots_[it->second].doc;
}

QueryPlan Collection::plan_locked(const Filter& filter,
                                  const FindOptions* options) const {
  const auto start = std::chrono::steady_clock::now();
  QueryMetrics& metrics = QueryMetrics::get();

  QueryPlan plan;  // collection scan until an index beats it
  plan.total_clauses = filter.clause_count();
  plan.residual = plan.total_clauses > 0;
  plan.estimated_candidates = static_cast<double>(id_to_slot_.size());

  const bool force_scan = options != nullptr && options->force_scan;
  if (!force_scan && !indexes_.empty() && plan.total_clauses > 0) {
    double best_cost = plan.estimated_candidates;
    for (const auto& index : indexes_) {
      CandidatePlan candidate = build_index_plan(*index, filter);
      if (!candidate.usable) continue;
      if (candidate.plan.estimated_candidates < best_cost ||
          (candidate.plan.estimated_candidates == best_cost &&
           candidate.plan.consumed_clauses > plan.consumed_clauses)) {
        best_cost = candidate.plan.estimated_candidates;
        plan = std::move(candidate.plan);
      }
    }
  }

  // Sort covering: a single-field, non-multikey index on the sort key can
  // stream results in index order (ranges ascend and are disjoint),
  // skipping the sort entirely.
  if (options != nullptr && !options->sort_by.empty()) {
    const auto sorts = [&](const OrderedIndex& index) {
      return index.single_field() && !index.multikey() &&
             index.fields().front() == options->sort_by;
    };
    if (plan.kind != QueryPlan::Kind::kScan && sorts(*plan.index)) {
      plan.covers_sort = true;
    } else if (plan.kind == QueryPlan::Kind::kScan && !force_scan &&
               options->limit.has_value()) {
      // No index consumed the filter, but a bounded sort can still
      // stream off a full index sweep and stop after skip+limit matches.
      for (const auto& index : indexes_) {
        if (!sorts(*index)) continue;
        plan.kind = QueryPlan::Kind::kIndexRange;
        plan.index = index.get();
        plan.ranges.assign(1, OrderedIndex::Range{});
        plan.covers_sort = true;
        break;
      }
    }
  }

  switch (plan.kind) {
    case QueryPlan::Kind::kScan: metrics.plans_scan.add(); break;
    case QueryPlan::Kind::kIndexPoint: metrics.plans_index_point.add(); break;
    case QueryPlan::Kind::kIndexRange: metrics.plans_index_range.add(); break;
  }
  metrics.planner_latency_us.observe(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count());
  return plan;
}

std::vector<std::size_t> Collection::plan_candidates_locked(
    const QueryPlan& plan) const {
  std::vector<std::size_t> out;
  if (plan.kind == QueryPlan::Kind::kScan || plan.index == nullptr) {
    out.reserve(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) out.push_back(i);
    return out;
  }
  for (const OrderedIndex::Range& range : plan.ranges) {
    plan.index->collect(range, out);
  }
  // Ascending slot order = insertion order, the same order a scan visits.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Collection::for_each_match(
    const Filter& filter, const FindOptions& options,
    const std::function<bool(const Document&)>& fn) const {
  const std::shared_lock lock(mutex_);
  const QueryPlan plan = plan_locked(filter, &options);
  if (options.limit.has_value() && *options.limit == 0) return;

  // A residual-free plan's candidates provably match (count() relies on
  // the same contract), so the filter only re-runs when it is residual.
  const auto matches = [&](const Slot& slot) {
    return slot.alive && (!plan.residual || filter.matches(slot.doc));
  };
  std::size_t to_skip = options.skip;
  std::size_t to_emit =
      options.limit.value_or(std::numeric_limits<std::size_t>::max());
  // Skip, then hand over; false once the caller or the limit stops.
  const auto emit = [&](const Document& doc) {
    if (to_skip > 0) {
      --to_skip;
      return true;
    }
    return fn(doc) && --to_emit > 0;
  };

  if (plan.covers_sort) {
    // Stream straight off index order.  Positions within one key ascend
    // (insertion order) — exactly what the scan path's stable sort
    // produces for ties.
    bool more = true;
    const auto visit = [&](const IndexKey&,
                           const std::vector<std::size_t>& positions) {
      for (const std::size_t position : positions) {
        const Slot& slot = slots_[position];
        if (!matches(slot)) continue;
        if (!emit(slot.doc)) {
          more = false;
          return false;
        }
      }
      return true;
    };
    if (options.descending) {
      for (auto it = plan.ranges.rbegin(); more && it != plan.ranges.rend();
           ++it) {
        plan.index->scan(*it, true, visit);
      }
    } else {
      for (auto it = plan.ranges.begin(); more && it != plan.ranges.end();
           ++it) {
        plan.index->scan(*it, false, visit);
      }
    }
    return;
  }

  const std::vector<std::size_t> candidates = plan_candidates_locked(plan);

  if (options.sort_by.empty()) {
    // Insertion order: stream with skip/limit, stopping at the cap.
    for (const std::size_t position : candidates) {
      const Slot& slot = slots_[position];
      if (matches(slot) && !emit(slot.doc)) return;
    }
    return;
  }

  // Sorted without index cover: order (sort key, position) pairs.  The
  // position tie-break reproduces the stable sort's insertion order
  // exactly, which lets a limited query use bounded top-k selection
  // instead of sorting every match.
  static const Value kNullValue;
  std::vector<std::pair<const Value*, std::size_t>> keyed;
  for (const std::size_t position : candidates) {
    const Slot& slot = slots_[position];
    if (!matches(slot)) continue;
    const Value* key = slot.doc.get_path(options.sort_by);
    keyed.emplace_back(key != nullptr ? key : &kNullValue, position);
  }
  const auto before = [&](const std::pair<const Value*, std::size_t>& a,
                          const std::pair<const Value*, std::size_t>& b) {
    const int c = compare_values(*a.first, *b.first);
    if (c != 0) return options.descending ? c > 0 : c < 0;
    return a.second < b.second;
  };
  std::size_t keep = keyed.size();
  if (options.limit.has_value()) {
    keep = options.skip + *options.limit;
    if (keep < options.skip || keep > keyed.size()) keep = keyed.size();
  }
  if (keep < keyed.size()) {
    std::partial_sort(keyed.begin(),
                      keyed.begin() + static_cast<std::ptrdiff_t>(keep),
                      keyed.end(), before);
    keyed.resize(keep);
  } else {
    std::sort(keyed.begin(), keyed.end(), before);
  }
  for (std::size_t i = std::min(options.skip, keyed.size()); i < keyed.size();
       ++i) {
    if (!fn(slots_[keyed[i].second].doc)) return;
  }
}

std::vector<Document> Collection::find(const Filter& filter,
                                       const FindOptions& options) const {
  std::vector<Document> out;
  for_each_match(filter, options, [&out](const Document& doc) {
    out.push_back(doc);
    return true;
  });
  return out;
}

std::size_t Collection::count(const Filter& filter) const {
  const std::shared_lock lock(mutex_);
  const QueryPlan plan = plan_locked(filter, nullptr);
  if (!plan.residual) {
    // Covered: every candidate provably matches — answer from posting
    // sizes without touching a document.
    if (plan.kind == QueryPlan::Kind::kScan) return id_to_slot_.size();
    if (plan.ranges.size() == 1 || !plan.index->multikey()) {
      std::size_t total = 0;
      for (const OrderedIndex::Range& range : plan.ranges) {
        total += plan.index->count_in_range(range);
      }
      return total;
    }
    // Multikey with several ranges: one document can land in more than
    // one — dedup positions across the whole set.
    std::vector<std::size_t> positions;
    for (const OrderedIndex::Range& range : plan.ranges) {
      plan.index->collect(range, positions);
    }
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    return positions.size();
  }
  std::size_t total = 0;
  for (const std::size_t position : plan_candidates_locked(plan)) {
    const Slot& slot = slots_[position];
    if (slot.alive && filter.matches(slot.doc)) ++total;
  }
  return total;
}

util::Value Collection::explain(const Filter& filter,
                                const FindOptions& options) const {
  const std::shared_lock lock(mutex_);
  const QueryPlan plan = plan_locked(filter, &options);
  const char* kind = plan.kind == QueryPlan::Kind::kScan ? "scan"
                     : plan.kind == QueryPlan::Kind::kIndexPoint
                         ? "index_point"
                         : "index_range";
  util::JsonObject clauses;
  clauses.set("total", Value(static_cast<std::int64_t>(plan.total_clauses)));
  clauses.set("consumed",
              Value(static_cast<std::int64_t>(plan.consumed_clauses)));
  util::JsonObject doc;
  doc.set("plan", Value(std::string(kind)));
  doc.set("index", plan.index == nullptr ? Value() : Value(plan.index->spec()));
  doc.set("ranges", Value(static_cast<std::int64_t>(plan.ranges.size())));
  doc.set("residual", Value(plan.residual));
  doc.set("covers_sort", Value(plan.covers_sort));
  doc.set("clauses", Value(std::move(clauses)));
  doc.set("estimated_candidates", Value(plan.estimated_candidates));
  doc.set("collection_size",
          Value(static_cast<std::int64_t>(id_to_slot_.size())));
  return Value(std::move(doc));
}

bool Collection::delete_by_id(std::string_view id) {
  const bool journaling = journaled();
  std::uint64_t last_seq = 0;
  {
    const std::shared_lock gate = gate_lock();
    if (const Status open = check_journal_open(); !open.ok()) {
      util::Log::error(open.error().message);
      return false;
    }
    const std::unique_lock lock(mutex_);
    const auto it = id_to_slot_.find(std::string(id));
    if (it == id_to_slot_.end()) return false;
    Slot& slot = slots_[it->second];
    for (const auto& index : indexes_) {
      index_remove_locked(*index, slot.doc, it->second);
    }
    slot.alive = false;
    slot.doc = Document();
    id_to_slot_.erase(it);
    if (journaling) {
      enqueue_locked(Journal::encode_delete(name_, std::string(id)), last_seq);
    }
  }
  // Bool-returning API: sync failures are logged by sync_journal only.
  (void)sync_journal(last_seq);
  return true;
}

void Collection::create_index(std::string spec) {
  create_index(split_index_spec(spec));
}

void Collection::create_index(std::vector<std::string> fields) {
  if (fields.empty()) return;
  auto index = std::make_unique<OrderedIndex>(std::move(fields));
  // Persist the declaration as a journal meta-record so it survives
  // reopen even before the first compact() snapshot.  Encoded outside
  // the lock like every other payload (wasted only when idempotent).
  const bool journaling = journaled();
  std::string payload;
  if (journaling) payload = Journal::encode_create_index(name_, index->spec());

  std::uint64_t last_seq = 0;
  {
    const std::shared_lock gate = gate_lock();
    if (const Status open = check_journal_open(); !open.ok()) {
      util::Log::error(open.error().message);
      return;
    }
    const std::unique_lock lock(mutex_);
    for (const auto& existing : indexes_) {
      if (existing->spec() == index->spec()) return;
    }
    for (std::size_t position = 0; position < slots_.size(); ++position) {
      if (slots_[position].alive) {
        index_add_locked(*index, slots_[position].doc, position);
      }
    }
    indexes_.push_back(std::move(index));
    if (journaling) enqueue_locked(std::move(payload), last_seq);
  }
  // Void-returning API: a sync failure is logged by sync_journal only.
  (void)sync_journal(last_seq);
}

std::vector<std::string> Collection::indexed_fields() const {
  const std::shared_lock lock(mutex_);
  std::vector<std::string> specs;
  specs.reserve(indexes_.size());
  for (const auto& index : indexes_) specs.push_back(index->spec());
  return specs;
}

void Collection::for_each(
    const std::function<void(const Document&)>& fn) const {
  const std::shared_lock lock(mutex_);
  for (const Slot& slot : slots_) {
    if (slot.alive) fn(slot.doc);
  }
}

}  // namespace upin::docdb
