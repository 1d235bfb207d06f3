// collection.hpp — a named set of documents (Mongo "collection").
//
// Implements the store behind the paper's three collections
// (availableServers, paths, paths_stats — Fig 3).  Batched insertion
// (`insert_many`) is atomic: the paper's fault-tolerance design (§4.2.2)
// batches one destination's statistics per write so a crash loses at most
// one balanced sample per path.
//
// A collection owned by a durable Database journals its own mutations:
// each one encodes its journal payload exactly once — for inserts,
// *before* the collection lock is taken — and enqueues it to the
// database's group-commit writer inside the locked window, so frames
// enter the journal in mutation order.  The call then waits for its
// last frame with Journal::sync() *after* the lock is released, so
// concurrent writers overlap their in-memory work with the writer's
// group commit.  A batch costs one durability wait, not N — the I/O
// trade-off of paper §4.2.2, measured in bench/ablation_storage; under
// a DeferredSync (database.hpp) calls leave the wait to Database::sync().  A
// collection without a journal (in-memory) never encodes a payload.
//
// The API is what the measurement pipeline needs: insert_one/insert_many,
// find_by_id, planned queries, count() and delete_by_id().  Queries that
// return documents have one path: for_each_match() plans the query and
// hands each match to a callback in place, under the shared lock; find()
// copies what it visits.  count() may answer from index postings without
// touching documents.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "docdb/document.hpp"
#include "docdb/filter.hpp"
#include "docdb/index.hpp"
#include "docdb/journal.hpp"
#include "util/result.hpp"

namespace upin::docdb {

/// Options for find().
struct FindOptions {
  std::string sort_by;               ///< dotted path; empty = insertion order
  bool descending = false;           ///< sort direction
  std::size_t skip = 0;              ///< drop this many leading results
  std::optional<std::size_t> limit;  ///< cap on returned documents
  /// Debug knob: bypass the planner and scan the collection.  Used by the
  /// property tests to prove planned and scanned execution agree.
  bool force_scan = false;
};

/// The execution strategy the planner chose for one query.  Surfaced as
/// JSON by Collection::explain(); internal pointers reference the
/// collection's indexes and the filter's operands, so a plan is only
/// valid for the duration of the query that built it.
struct QueryPlan {
  enum class Kind { kScan, kIndexPoint, kIndexRange };
  Kind kind = Kind::kScan;
  const OrderedIndex* index = nullptr;       ///< null for kScan
  std::vector<OrderedIndex::Range> ranges;   ///< one per $in element
  bool residual = true;     ///< re-check the full filter per candidate
  bool covers_sort = false; ///< index order answers sort_by directly
  std::size_t consumed_clauses = 0;
  std::size_t total_clauses = 0;
  double estimated_candidates = 0.0;
};

/// Wait until `journal` has committed every frame up to `seq`.  A
/// failure is logged and reported as kDataLoss: the frames may not be
/// durable.
[[nodiscard]] util::Status wait_durable(Journal& journal, std::uint64_t seq);

/// Thread-safe document collection with optional secondary indexes.
class Collection {
 public:
  /// `journal` and `write_gate` belong to the owning durable Database
  /// and must outlive the collection; both are null for an in-memory
  /// collection.  Every mutating call holds `write_gate` shared for its
  /// mutate+enqueue window; Database::compact() holds it exclusive, so a
  /// snapshot is always a superset of every frame the journal writer
  /// could still commit to the pre-compact file.  Nothing is journaled
  /// while the journal is not open yet (replay on Database::open).  Once
  /// it has closed under the collection (a compact() whose rename or
  /// reopen failed), mutations are refused with kDataLoss and leave
  /// memory unchanged: they could no longer be made durable.
  explicit Collection(std::string name, Journal* journal = nullptr,
                      std::shared_mutex* write_gate = nullptr);
  ~Collection();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Number of live documents.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Insert one document.  A missing `_id` is assigned ("doc_<n>");
  /// a duplicate `_id` is a kConflict.  Returns the document's id.
  /// On a journaled collection a failed durability sync is reported as
  /// kDataLoss: the document is in memory but may not be on disk.
  util::Result<std::string> insert_one(Document doc);

  /// Atomic batch insert: either every document is inserted or none
  /// (first conflicting/invalid id reported).  Returns the ids in order.
  /// Durability-sync failures surface as kDataLoss, as for insert_one.
  util::Result<std::vector<std::string>> insert_many(std::vector<Document> docs);

  /// Fetch by id.
  [[nodiscard]] util::Result<Document> find_by_id(std::string_view id) const;

  /// Visit the documents matching `filter`, honoring `options`, in place
  /// and in find()'s order; return false from `fn` to stop the walk.  The
  /// planner turns the filter's `$eq`/`$in`/range predicates into an
  /// ordered-index range scan; the filter re-runs per candidate only
  /// when the plan is residual (a residual-free plan's candidates provably
  /// match).  Results come in insertion order — identical to a scan —
  /// unless sorted, and `sort_by` on a single-field index streams
  /// straight off index order.  `fn` runs under the collection's shared
  /// lock: it must not mutate this collection (that would deadlock), and
  /// the reference is only valid during the call.
  void for_each_match(const Filter& filter, const FindOptions& options,
                      const std::function<bool(const Document&)>& fn) const;

  /// Copies of the documents for_each_match() visits.
  [[nodiscard]] std::vector<Document> find(const Filter& filter,
                                           const FindOptions& options = {}) const;

  /// Matching-document count.  Residual-free index plans are *covered*:
  /// answered from posting sizes without touching documents.
  [[nodiscard]] std::size_t count(const Filter& filter) const;

  /// The plan the planner would choose for this query, as a JSON debug
  /// document: {"plan", "index", "ranges", "residual", "covers_sort",
  /// "clauses": {"total", "consumed"}, "estimated_candidates",
  /// "collection_size"}.
  [[nodiscard]] util::Value explain(const Filter& filter,
                                    const FindOptions& options = {}) const;

  /// Delete one document by id; false when there is none, or when the
  /// journal has closed (logged; nothing is deleted).
  bool delete_by_id(std::string_view id);

  /// Create (and backfill) an ordered index on a dotted field, or a
  /// compound one via a comma-separated spec ("path_id,timestamp_ms").
  /// Idempotent.  On a journaled collection the declaration is persisted
  /// as a meta-record so it survives reopen; once the journal has closed
  /// (see the constructor) the declaration is logged and declined, like
  /// every other mutation, instead of building an unjournaled index.
  void create_index(std::string spec);
  void create_index(std::vector<std::string> fields);
  /// Declarations of every index, in creation order (compound specs are
  /// comma-joined) — the form journal snapshots persist.
  [[nodiscard]] std::vector<std::string> indexed_fields() const;

  /// Visit every live document (read lock held during the walk).
  void for_each(const std::function<void(const Document&)>& fn) const;

 private:
  struct Slot {
    Document doc;
    bool alive = false;
  };

  /// Validate shape and settle the `_id` (auto-assigned off an atomic
  /// counter, so no lock is needed).  Store-conflict checks happen later,
  /// under the lock.
  util::Result<std::string> prepare_document(Document& doc);

  // All methods below require mutex_ held by the caller.
  void insert_locked(Document doc, const std::string& id);
  /// Choose the cheapest execution plan for `filter` (and, when given,
  /// `options`' sort/force_scan).  Instruments the planner metrics.
  [[nodiscard]] QueryPlan plan_locked(const Filter& filter,
                                      const FindOptions* options) const;
  /// Candidate slot positions for a plan, ascending (= insertion order),
  /// deduplicated.  kScan yields every slot.
  [[nodiscard]] std::vector<std::size_t> plan_candidates_locked(
      const QueryPlan& plan) const;
  /// Index add/remove wrappers that keep the upin_index_entries gauge
  /// in step with the index's entry count.
  void index_add_locked(OrderedIndex& index, const Document& doc,
                        std::size_t position);
  void index_remove_locked(OrderedIndex& index, const Document& doc,
                           std::size_t position);
  /// Enqueue one payload to the journal (mutex_ held, so frames keep
  /// mutation order); `last_seq` tracks the call's newest frame.
  void enqueue_locked(std::string payload, std::uint64_t& last_seq);
  /// Wait until the call's frames up to `last_seq` are committed (call
  /// *without* mutex_ or the write gate held; 0 = nothing to wait for),
  /// unless this thread has a DeferredSync open for the database.
  /// A failure means the mutation is in memory but its journal frame may
  /// not be durable; it is reported as kDataLoss.
  [[nodiscard]] util::Status sync_journal(std::uint64_t last_seq) const;
  /// Shared hold on the database write gate (no-op when there is none).
  /// Acquire *before* mutex_ — same order as Database::compact().
  [[nodiscard]] std::shared_lock<std::shared_mutex> gate_lock() const;

  [[nodiscard]] bool journaled() const {
    return journal_ != nullptr && journal_->is_open();
  }
  /// kDataLoss when the journal has closed under this collection (see the
  /// constructor); call with the write gate held, so no compact() can
  /// close it in between.
  [[nodiscard]] util::Status check_journal_open() const;

  std::string name_;
  mutable std::shared_mutex mutex_;
  std::vector<Slot> slots_;
  std::unordered_map<std::string, std::size_t> id_to_slot_;
  std::vector<std::unique_ptr<OrderedIndex>> indexes_;
  std::atomic<std::uint64_t> next_auto_id_{1};
  Journal* const journal_;                   ///< owned by the Database
  std::shared_mutex* const write_gate_;      ///< owned by the Database
};

}  // namespace upin::docdb
