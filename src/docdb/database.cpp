#include "docdb/database.hpp"

#include "util/log.hpp"

namespace upin::docdb {

using util::ErrorCode;
using util::Result;
using util::Status;
using util::Value;

Result<std::unique_ptr<Database>> Database::open(const std::string& path) {
  return open(path, DatabaseOptions{});
}

Result<std::unique_ptr<Database>> Database::open(const std::string& path,
                                                 const DatabaseOptions& options) {
  auto db = std::make_unique<Database>();
  db->journal_ = std::make_unique<Journal>();
  Vfs& fs = options.vfs == nullptr ? Vfs::real() : *options.vfs;

  // Replay first: the journal is not open yet, so nothing replayed is
  // journaled again.
  ReplayReport report;
  ReplayOptions replay_options;
  replay_options.salvage = options.salvage_mode;
  if (options.salvage_mode) replay_options.quarantine_path = path + ".quarantine";
  replay_options.vfs = options.vfs;
  const Status replayed = Journal::replay(path, [&](const JournalRecord& record) -> Status {
    Collection& coll = db->collection(record.collection);
    if (record.op == "create_collection") {
      return Status::success();
    }
    if (record.op == "create_index") {
      coll.create_index(record.field);
      return Status::success();
    }
    if (record.op == "insert") {
      Result<std::string> inserted = coll.insert_one(record.document);
      if (!inserted.ok()) return Status(inserted.error());
      return Status::success();
    }
    if (record.op == "update") {
      // Replay-only (nothing writes it now): post-image, delete + reinsert.
      coll.delete_by_id(record.id);
      Result<std::string> inserted = coll.insert_one(record.document);
      if (!inserted.ok()) return Status(inserted.error());
      return Status::success();
    }
    if (record.op == "delete") {
      coll.delete_by_id(record.id);
      return Status::success();
    }
    return Status(ErrorCode::kParseError, "unknown journal op: " + record.op);
  }, &report, replay_options);
  if (!replayed.ok()) return Result<std::unique_ptr<Database>>(replayed.error());
  if (report.torn_tail) {
    util::Log::warn("journal " + path + " line " +
                    std::to_string(report.torn_tail_line) + ": " +
                    report.detail + "; " +
                    std::to_string(report.records_applied) +
                    " records recovered");
    // Cut the garbage tail off before appending, or the next record would
    // concatenate onto it and corrupt the journal for good.
    const Status cut = fs.truncate(path, report.valid_prefix_bytes);
    if (!cut.ok()) {
      return Result<std::unique_ptr<Database>>(util::Error{
          ErrorCode::kDataLoss,
          "cannot truncate torn journal tail: " + cut.error().message});
    }
  }

  const Status opened = db->journal_->open(path, options.vfs);
  if (!opened.ok()) return Result<std::unique_ptr<Database>>(opened.error());
  if (report.quarantined_records > 0) {
    util::Log::warn("journal " + path + ": quarantined " +
                    std::to_string(report.quarantined_records) +
                    " corrupt record(s) to " + report.quarantine_path +
                    "; compacting");
    // Scrub: rewrite the journal from the salvaged state so the corrupt
    // lines are gone and a later *strict* open succeeds.
    const Status scrubbed = db->compact();
    if (!scrubbed.ok()) {
      return Result<std::unique_ptr<Database>>(scrubbed.error());
    }
  }
  return db;
}

Collection& Database::collection(const std::string& name) {
  // Creating a collection enqueues a journal frame, so it must not race
  // a compact() snapshot — same shared hold (and same gate-before-lock
  // order) as every Collection mutator.
  const std::shared_lock gate(write_gate_);
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    // In-memory collections get neither journal nor gate: no journal
    // payload is ever encoded for them.
    it = collections_
             .emplace(name, std::make_unique<Collection>(
                                name, journal_.get(),
                                journal_ != nullptr ? &write_gate_ : nullptr))
             .first;
    if (journal_ != nullptr && journal_->is_open()) {
      // A rejected frame (pipeline stopped) is logged by the journal.
      (void)journal_->enqueue(Journal::encode_create_collection(name));
    } else if (journal_ != nullptr && journal_->closed()) {
      // The caller still gets its (in-memory) collection, but the
      // database can no longer make it durable: say so.
      util::Log::error("journal closed (failed compaction); collection " +
                       name + " created without a create_collection frame");
    }
  }
  return *it->second;
}

Collection* Database::find_collection(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

const Collection* Database::find_collection(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::collection_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, unused] : collections_) names.push_back(name);
  return names;
}

void Database::set_write_guard(WriteGuard guard) {
  const std::lock_guard<std::mutex> lock(guard_mutex_);
  write_guard_ = std::move(guard);
}

bool Database::has_write_guard() const {
  const std::lock_guard<std::mutex> lock(guard_mutex_);
  return static_cast<bool>(write_guard_);
}

namespace {

const util::Error kDenied{ErrorCode::kPermissionDenied,
                          "write credential rejected"};

}  // namespace

Result<std::string> Database::guarded_insert(const std::string& collection_name,
                                             Document doc,
                                             const Value& credential) {
  {
    const std::lock_guard<std::mutex> lock(guard_mutex_);
    if (write_guard_ && !write_guard_(credential)) {
      return Result<std::string>(kDenied);
    }
  }
  return collection(collection_name).insert_one(std::move(doc));
}

Result<std::vector<std::string>> Database::guarded_insert_many(
    const std::string& collection_name, std::vector<Document> docs,
    const Value& credential) {
  {
    const std::lock_guard<std::mutex> lock(guard_mutex_);
    if (write_guard_ && !write_guard_(credential)) {
      return Result<std::vector<std::string>>(kDenied);
    }
  }
  return collection(collection_name).insert_many(std::move(docs));
}

std::vector<JournalRecord> Database::snapshot_records() const {
  std::vector<JournalRecord> records;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, coll] : collections_) {
    JournalRecord create;
    create.op = "create_collection";
    create.collection = name;
    records.push_back(create);
    for (const std::string& field : coll->indexed_fields()) {
      JournalRecord index;
      index.op = "create_index";
      index.collection = name;
      index.field = field;
      records.push_back(index);
    }
    coll->for_each([&](const Document& doc) {
      JournalRecord insert;
      insert.op = "insert";
      insert.collection = name;
      insert.id = std::string(document_id(doc).value_or(""));
      insert.document = doc;
      records.push_back(insert);
    });
  }
  return records;
}

Status Database::compact() {
  if (journal_ == nullptr) return Status::success();
  // Exclusive gate: no mutator is inside its mutate+enqueue window, so once
  // rewrite() drains the writer queue the snapshot covers every frame
  // that could ever reach the pre-compact file — nothing is lost and
  // nothing is double-applied on replay.
  const std::unique_lock gate(write_gate_);
  return journal_->rewrite(snapshot_records());
}

Status Database::sync() {
  if (journal_ == nullptr) return Status::success();
  const std::uint64_t last = journal_->last_enqueued();
  if (last == 0) return Status::success();
  return wait_durable(*journal_, last);
}

// ---- DeferredSync ---------------------------------------------------------

namespace {
/// The journal of the innermost DeferredSync open on this thread.
thread_local const Journal* deferred_journal = nullptr;
}  // namespace

DeferredSync::DeferredSync(Database& db) : previous_(deferred_journal) {
  deferred_journal = db.journal_.get();
}

DeferredSync::~DeferredSync() { deferred_journal = previous_; }

bool DeferredSync::defers(const Journal* journal) {
  return journal != nullptr && journal == deferred_journal;
}

bool DeferredSync::defers(const Database& db) {
  return defers(db.journal_.get());
}

}  // namespace upin::docdb
