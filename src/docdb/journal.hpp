// journal.hpp — append-only JSONL persistence with a group-commit writer.
//
// Every committed mutation is appended as one JSON line; reopening a
// database replays the journal.  `compact()` rewrites the file from the
// live state.  This is the durability story behind the paper's "continuous
// measurements require continuous functioning" requirement (§4.1.2):
// a crash during a batch loses only that (uncommitted) batch.
//
// One write path: open() starts a dedicated writer thread; producers
// enqueue() pre-encoded record payloads into a bounded MPSC queue and
// sync() on the sequence number of their last frame.  The writer drains
// the queue in groups and commits each group with ONE write + ONE fsync.
// This takes framing, CRC and file I/O off the mutating threads (and off
// the collection lock), which is what lets concurrent writers batch their
// storage the way the paper batches MongoDB insertions (§4.2.2).
// rewrite() is the only other writer: compaction, after draining the
// queue.
//
// Integrity: every appended record carries a CRC-32 prefix
// ("crc32=XXXXXXXX <json>"), verified on replay, so torn or bit-flipped
// lines are *detected* rather than silently parsed.  Checksum-less lines
// (journals written before this format) still replay unverified.  A
// corrupt *final* line that is not newline-terminated is a torn tail —
// the signature of a crash mid-append — and replay recovers the intact
// prefix; corruption anywhere else is a hard kParseError.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "docdb/document.hpp"
#include "docdb/vfs.hpp"
#include "util/bounded_queue.hpp"
#include "util/result.hpp"

namespace upin::docdb {

/// One replayed journal record.  The program writes create_collection,
/// create_index, insert and delete frames; "update" frames (a document's
/// post-image) are replay-only, so journals that hold them still open.
struct JournalRecord {
  std::string op;          ///< "create_collection" | "create_index" | "insert" | "delete" | "update" (replay-only)
  std::string collection;
  std::string id;          ///< document id (insert/delete/update)
  std::string field;       ///< index field (create_index)
  Document document;       ///< the document (insert) or post-image (update)
};

/// What replay() found, beyond success/failure.
struct ReplayReport {
  std::size_t records_applied = 0;
  /// A crash-truncated final record was detected and dropped; everything
  /// before it was replayed.  Recoverable — replay still succeeds.
  bool torn_tail = false;
  std::size_t torn_tail_line = 0;  ///< 1-based line number of the torn record
  /// Byte length of the intact prefix (= where the torn record starts).
  /// Truncate the file to this length before appending again, or the next
  /// record would concatenate onto the garbage tail.
  std::size_t valid_prefix_bytes = 0;
  std::string detail;              ///< human-readable account of the tail
  // ---- salvage mode only ----
  std::size_t quarantined_records = 0;  ///< corrupt mid-file lines dropped
  std::size_t first_quarantined_line = 0;  ///< 1-based, 0 if none
  std::string quarantine_path;     ///< sidecar written to (empty if none)
};

/// Recovery policy for replay().
struct ReplayOptions {
  /// Strict (false, default): a corrupt newline-terminated line anywhere
  /// fails hard with kParseError.  Salvage (true): such lines are
  /// appended verbatim to the `quarantine_path` sidecar — with a header
  /// naming the source line and the reason — and replay continues with
  /// the rest.  The sidecar is fsynced before replay returns; if it
  /// cannot be written, replay fails with kDataLoss, since dropping a
  /// record nobody kept a copy of would destroy it.  The torn-tail
  /// contract is unchanged in both modes.
  bool salvage = false;
  std::string quarantine_path;  ///< required when salvage is on
  /// Backend for the sidecar (nullptr = the real filesystem).
  Vfs* vfs = nullptr;
};

/// Append-only JSON-lines journal.
class Journal {
 public:
  /// Bound on the writer queue; producers block (backpressure) when this
  /// many frames are waiting for the writer thread.
  static constexpr std::size_t kQueueDepth = 1024;

  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (creating if needed) the journal at `path` for appending and
  /// start the writer thread.  `vfs` is the storage backend (nullptr =
  /// the real filesystem); it must outlive the journal.
  [[nodiscard]] util::Status open(const std::string& path,
                                  Vfs* vfs = nullptr);
  [[nodiscard]] bool is_open() const noexcept;
  /// Whether the journal was open and no longer is: close(), or a
  /// rewrite() whose rename or reopen failed.  A journal never opened
  /// (a database still replaying) is not closed.
  [[nodiscard]] bool closed() const noexcept;
  /// Stop the writer thread (draining and committing every queued
  /// frame), then close the file.
  void close();

  /// Hand a pre-encoded record payload (see the encode_* helpers) to the
  /// writer thread.  Blocks while the queue is full (backpressure).
  /// Returns the frame's 1-based sequence number, or 0 if the pipeline
  /// is not accepting frames (not opened yet, or closed).
  [[nodiscard]] std::uint64_t enqueue(std::string payload);

  /// Block until every frame with sequence <= `seq` has been committed
  /// (one group write + fsync covers many frames).  Any writer-thread
  /// I/O error is sticky and is reported by the next — and every later —
  /// sync() call; the writer writes nothing after it, so the file stays
  /// a prefix of the enqueued frames.
  [[nodiscard]] util::Status sync(std::uint64_t seq);
  /// Sequence number of the newest frame enqueued so far (0: none).
  [[nodiscard]] std::uint64_t last_enqueued() const;

  // ---- record payload encoders ---------------------------------------
  // One JSON encode per mutation, done by the mutating thread *before*
  // framing; the writer thread adds the CRC frame.  The wrapper object
  // is assembled directly so the document is serialized exactly once
  // and never deep-copied into an intermediate record.

  [[nodiscard]] static std::string encode_insert(const std::string& collection,
                                                 const std::string& id,
                                                 const Document& document);
  [[nodiscard]] static std::string encode_delete(const std::string& collection,
                                                 const std::string& id);
  [[nodiscard]] static std::string encode_create_collection(
      const std::string& collection);
  /// Index-declaration meta-record ("create_index"); `field_spec` is the
  /// canonical comma-joined declaration, replayed via create_index().
  [[nodiscard]] static std::string encode_create_index(
      const std::string& collection, const std::string& field_spec);

  /// Replay an existing journal file through `replay`, streaming one
  /// line at a time (peak memory is one record, not the file).
  /// Per-record CRCs are verified when present.  A corrupt final line
  /// without a trailing newline is a *torn tail* (crash mid-append): the
  /// intact prefix is replayed, the tail is dropped, and `report`
  /// (optional) says so.  Corruption anywhere else — including a
  /// newline-terminated corrupt last line — fails hard with kParseError,
  /// with everything before the bad line already replayed, unless
  /// `options` asks for salvage (see ReplayOptions).  A missing file
  /// replays nothing.
  [[nodiscard]] static util::Status replay(
      const std::string& path,
      const std::function<util::Status(const JournalRecord&)>& replay,
      ReplayReport* report = nullptr, const ReplayOptions& options = {});

  /// Atomically replace the journal contents with `records`.  Quiesces
  /// the writer pipeline first (every frame enqueued before the call is
  /// committed before the swap — the file mutex then keeps the writer
  /// parked for the duration), writes the temp file, fsyncs it, renames
  /// it over the journal and fsyncs the parent directory, so no crash
  /// point can lose committed records or resurrect the old journal.
  [[nodiscard]] util::Status rewrite(const std::vector<JournalRecord>& records);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  static std::string encode(const JournalRecord& record);
  [[nodiscard]] util::Status rewrite_impl(
      const std::vector<JournalRecord>& records);
  void writer_loop();
  void stop_writer();

  /// Backend in use (never null after open()).
  [[nodiscard]] Vfs& vfs() const noexcept {
    return vfs_ == nullptr ? Vfs::real() : *vfs_;
  }

  std::string path_;
  Vfs* vfs_ = nullptr;                ///< storage seam; not owned
  std::unique_ptr<File> out_;
  std::mutex mutex_;                  ///< guards out_ (file I/O)
  enum class State : std::uint8_t { kNew, kOpen, kClosed };
  std::atomic<State> state_{State::kNew};

  // Group-commit pipeline state.
  std::unique_ptr<util::BoundedQueue<std::string>> queue_;
  std::thread writer_;
  std::mutex sync_mutex_;             ///< guards flushed_seq_/writer_status_
  std::condition_variable sync_cv_;
  std::uint64_t flushed_seq_ = 0;
  util::Status writer_status_;        ///< sticky first writer error
};

}  // namespace upin::docdb
