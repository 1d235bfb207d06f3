// database.hpp — a named set of collections with optional durability and
// write-access control.
//
// Mirrors the paper's MongoDB deployment: three collections (Fig 3),
// batched writes (§4.2.2), and the designed-but-unimplemented PKC write
// gate (§4.2.2 "Database Access Management") which we do implement via a
// pluggable WriteGuard (the SCION trust layer provides one).
//
// A durable database owns the Journal and the write gate and hands both
// to every collection it creates; collections then journal their own
// mutations (collection.hpp).  The database itself journals collection
// creation, replays the journal on open() — before the journal is open,
// so replay never journals — and compacts.  A DeferredSync lets one
// thread's mutating calls skip their waits until one sync() covers them.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "docdb/collection.hpp"
#include "docdb/journal.hpp"
#include "docdb/vfs.hpp"

namespace upin::docdb {

/// Verifies a write credential.  Returning false rejects the mutation
/// with kPermissionDenied.  Implementations must be thread-safe.
using WriteGuard = std::function<bool(const util::Value& credential)>;

/// Tuning for a durable database.
struct DatabaseOptions {
  /// Strict (false, default): a corrupt newline-terminated journal line
  /// fails open() with kParseError.  Salvage (true): corrupt mid-file
  /// records are quarantined to `<path>.quarantine` (header naming line
  /// and reason, then the raw line; fsynced through `vfs`), the rest
  /// replays, and the journal is immediately compacted so later strict
  /// opens succeed.  If the sidecar cannot be written, open() fails with
  /// kDataLoss and leaves the journal untouched.
  bool salvage_mode = false;
  /// Storage backend (nullptr = the real filesystem).  Must outlive the
  /// database.  Tests plug a FaultVfs in here.
  Vfs* vfs = nullptr;
};

/// An embedded multi-collection document database.
class Database {
 public:
  Database() = default;

  /// Open a durable database backed by the JSONL journal at `path`,
  /// replaying any existing contents and starting the group-commit
  /// writer thread.
  [[nodiscard]] static util::Result<std::unique_ptr<Database>> open(
      const std::string& path);
  [[nodiscard]] static util::Result<std::unique_ptr<Database>> open(
      const std::string& path, const DatabaseOptions& options);

  /// Get or create a collection.  The returned pointer is stable for the
  /// lifetime of the Database.  Once a failed compact() has closed the
  /// journal, a new collection exists in memory only, and that is logged
  /// (its mutations are then refused, see Collection).
  Collection& collection(const std::string& name);

  /// Existing collection or nullptr.
  [[nodiscard]] Collection* find_collection(const std::string& name);
  [[nodiscard]] const Collection* find_collection(const std::string& name) const;

  [[nodiscard]] std::vector<std::string> collection_names() const;

  // ---- write-access control ------------------------------------------

  /// Install a write guard.  Once set, guarded_insert* calls verify their
  /// credential before inserting; direct Collection mutation remains
  /// available to in-process trusted code (the guard models the paper's
  /// *remote writer* authentication).
  void set_write_guard(WriteGuard guard);
  [[nodiscard]] bool has_write_guard() const;

  /// Insert with credential check (single document).
  util::Result<std::string> guarded_insert(const std::string& collection_name,
                                           Document doc,
                                           const util::Value& credential);
  /// Insert with credential check (atomic batch).
  util::Result<std::vector<std::string>> guarded_insert_many(
      const std::string& collection_name, std::vector<Document> docs,
      const util::Value& credential);

  // ---- durability ------------------------------------------------------

  /// Rewrite the journal from live state (drops deleted/overwritten
  /// history).  Safe against concurrent mutators: the write gate is held
  /// exclusively, so the snapshot is a superset of every frame the
  /// group-commit writer could still put in the old file.  No-op for
  /// in-memory databases.
  [[nodiscard]] util::Status compact();

  /// Wait until every journal frame enqueued so far, by any thread, is
  /// durable; kDataLoss when one may not be.  Returns at once for an
  /// in-memory database.  This is the wait calls made under a
  /// DeferredSync left out.
  [[nodiscard]] util::Status sync();

  [[nodiscard]] bool is_durable() const noexcept { return journal_ != nullptr; }

 private:
  friend class DeferredSync;

  [[nodiscard]] std::vector<JournalRecord> snapshot_records() const;

  // Declared before collections_: every durable collection points at both.
  std::unique_ptr<Journal> journal_;
  /// Mutators hold this shared (before any collection lock); compact()
  /// holds it exclusive while snapshotting + rewriting the journal.
  std::shared_mutex write_gate_;
  mutable std::mutex mutex_;
  // std::map keeps pointers stable and names sorted for listings.
  std::map<std::string, std::unique_ptr<Collection>> collections_;
  WriteGuard write_guard_;
  mutable std::mutex guard_mutex_;
};

/// Defers the durability waits of one thread's mutating calls on one
/// database.  While a DeferredSync is alive, each mutating call the
/// constructing thread makes on `db`'s collections enqueues its journal
/// frames as usual but returns without waiting for them; a later
/// Database::sync() waits for all of them at once.  The frames, their
/// order and the journal bytes are exactly those of the same calls made
/// without it: only the waits move.  A deferred call is durable once a
/// later sync() — or any later wait on the database, since waits
/// resolve in sequence order — has returned success; the journal writer
/// stops at its first failed commit, so no frame behind a failed one
/// reaches the file.  Calls from other threads and on other databases
/// keep their own waits.  Deferrals are scoped objects; when they nest,
/// the innermost one decides.
class DeferredSync {
 public:
  explicit DeferredSync(Database& db);
  ~DeferredSync();

  DeferredSync(const DeferredSync&) = delete;
  DeferredSync& operator=(const DeferredSync&) = delete;

  /// Collection hook: whether this thread's innermost DeferredSync is
  /// open for `journal` (then the call does not wait).
  [[nodiscard]] static bool defers(const Journal* journal);
  /// Whether this thread's innermost DeferredSync is open for durable
  /// `db`: a caller's deferral a callee can leave its wait to.
  [[nodiscard]] static bool defers(const Database& db);

 private:
  const Journal* const previous_;  ///< restored when this one ends
};

}  // namespace upin::docdb
