#include "docdb/journal.hpp"

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace upin::docdb {

using util::ErrorCode;
using util::Status;
using util::Value;

namespace {

/// Write-path metrics, resolved once per process: the hot paths touch
/// pre-registered references, never the registry lock.  Latencies here
/// are *wall-clock* (the disk is real even when the network is virtual),
/// so they are deliberately absent from the determinism contract.
struct JournalMetrics {
  obs::Counter& events_enqueued;
  obs::Counter& backpressure_stalls;
  obs::Counter& groups_committed;
  obs::Counter& bytes_written;
  obs::Counter& io_errors;
  obs::Counter& quarantined_records;
  obs::Counter& compact_runs;
  obs::Counter& compact_failures;
  obs::Counter& compact_records;
  obs::LatencyHistogram& group_size;
  obs::LatencyHistogram& flush_latency_us;
  obs::LatencyHistogram& sync_wait_us;

  static JournalMetrics& get() {
    static JournalMetrics metrics{
        obs::Registry::global().counter("upin_journal_events_enqueued_total"),
        obs::Registry::global().counter(
            "upin_journal_backpressure_stalls_total"),
        obs::Registry::global().counter("upin_journal_groups_committed_total"),
        obs::Registry::global().counter("upin_journal_bytes_written_total"),
        obs::Registry::global().counter("upin_journal_io_errors_total"),
        obs::Registry::global().counter(
            "upin_journal_quarantined_records_total"),
        obs::Registry::global().counter("upin_compact_runs_total"),
        obs::Registry::global().counter("upin_compact_failures_total"),
        obs::Registry::global().counter("upin_compact_records_total"),
        obs::Registry::global().histogram("upin_journal_group_size", 0.0,
                                          256.0, 32),
        obs::Registry::global().histogram("upin_journal_flush_latency_us", 0.0,
                                          5000.0, 50),
        obs::Registry::global().histogram("upin_journal_sync_wait_us", 0.0,
                                          5000.0, 50),
    };
    return metrics;
  }
};

using WallClock = std::chrono::steady_clock;

double elapsed_us(WallClock::time_point since) {
  return std::chrono::duration<double, std::micro>(WallClock::now() - since)
      .count();
}

constexpr std::string_view kCrcPrefix = "crc32=";
constexpr std::size_t kCrcHexDigits = 8;

/// "crc32=XXXXXXXX <json>" — the checksummed line format.
std::string frame(const std::string& json) {
  return std::string(kCrcPrefix) + util::format("%08x", util::crc32(json)) +
         " " + json;
}

/// Assemble one record payload directly (same field order as a dumped
/// JsonObject: op, coll, id, field, doc) so the document body is
/// serialized exactly once, with no intermediate deep copy.
std::string encode_parts(std::string_view op, const std::string& collection,
                         const std::string& id, const std::string& field,
                         const Document* document) {
  std::string out;
  out.reserve(32 + collection.size() + id.size() + field.size());
  out += "{\"op\":";
  out += Value(std::string(op)).dump();
  out += ",\"coll\":";
  out += Value(collection).dump();
  if (!id.empty()) {
    out += ",\"id\":";
    out += Value(id).dump();
  }
  if (!field.empty()) {
    out += ",\"field\":";
    out += Value(field).dump();
  }
  if (document != nullptr && document->is_object()) {
    out += ",\"doc\":";
    out += document->dump();
  }
  out += '}';
  return out;
}

/// Strip and verify a line's checksum header.  Returns the JSON payload,
/// or an error describing the corruption.  Checksum-less lines (legacy
/// journals, which start straight with '{') pass through unverified.
util::Result<std::string> unframe(const std::string& line) {
  if (!line.starts_with(kCrcPrefix)) {
    if (!line.empty() && line.front() == '{') return line;  // legacy record
    return util::Error{ErrorCode::kParseError, "unrecognized line format"};
  }
  const std::size_t header = kCrcPrefix.size() + kCrcHexDigits;
  if (line.size() < header + 2 || line[header] != ' ') {
    return util::Error{ErrorCode::kParseError, "malformed checksum header"};
  }
  std::uint32_t expected = 0;
  for (std::size_t i = kCrcPrefix.size(); i < header; ++i) {
    const char ch = line[i];
    std::uint32_t digit = 0;
    if (ch >= '0' && ch <= '9') {
      digit = static_cast<std::uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      digit = static_cast<std::uint32_t>(ch - 'a') + 10;
    } else {
      return util::Error{ErrorCode::kParseError, "malformed checksum header"};
    }
    expected = (expected << 4) | digit;
  }
  std::string payload = line.substr(header + 1);
  if (util::crc32(payload) != expected) {
    return util::Error{ErrorCode::kParseError, "checksum mismatch"};
  }
  return payload;
}

/// Decode one verified payload into a JournalRecord.
util::Result<JournalRecord> decode(const std::string& payload) {
  util::Result<Value> parsed = Value::parse(payload);
  if (!parsed.ok()) return util::Error{parsed.error()};
  const Value& value = parsed.value();
  JournalRecord record;
  if (const Value* op = value.get("op"); op && op->is_string()) {
    record.op = op->as_string();
  }
  if (const Value* coll = value.get("coll"); coll && coll->is_string()) {
    record.collection = coll->as_string();
  }
  if (const Value* id = value.get("id"); id && id->is_string()) {
    record.id = id->as_string();
  }
  if (const Value* field = value.get("field"); field && field->is_string()) {
    record.field = field->as_string();
  }
  if (const Value* doc = value.get("doc")) record.document = *doc;
  if (record.op.empty() || record.collection.empty()) {
    return util::Error{ErrorCode::kParseError, "missing op/coll"};
  }
  return record;
}

}  // namespace

Journal::~Journal() { close(); }

Status Journal::open(const std::string& path, Vfs* vfs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (out_ != nullptr) out_->close();
  path_ = path;
  if (vfs != nullptr) vfs_ = vfs;
  util::Result<std::unique_ptr<File>> opened = this->vfs().open_append(path);
  if (!opened.ok()) {
    out_.reset();
    state_.store(State::kClosed, std::memory_order_release);
    return Status(ErrorCode::kDataLoss,
                  "cannot open journal: " + opened.error().message);
  }
  out_ = std::move(opened).value();
  state_.store(State::kOpen, std::memory_order_release);
  if (!writer_.joinable()) {
    queue_ = std::make_unique<util::BoundedQueue<std::string>>(kQueueDepth);
    writer_ = std::thread([this] { writer_loop(); });
  }
  return Status::success();
}

bool Journal::is_open() const noexcept {
  return state_.load(std::memory_order_acquire) == State::kOpen;
}

bool Journal::closed() const noexcept {
  return state_.load(std::memory_order_acquire) == State::kClosed;
}

void Journal::close() {
  stop_writer();
  const std::lock_guard<std::mutex> lock(mutex_);
  state_.store(State::kClosed, std::memory_order_release);
  if (out_ != nullptr) {
    out_->close();
    out_.reset();
  }
}

std::string Journal::encode(const JournalRecord& record) {
  return encode_parts(record.op, record.collection, record.id, record.field,
                      &record.document);
}

std::string Journal::encode_insert(const std::string& collection,
                                   const std::string& id,
                                   const Document& document) {
  return encode_parts("insert", collection, id, {}, &document);
}

std::string Journal::encode_delete(const std::string& collection,
                                   const std::string& id) {
  return encode_parts("delete", collection, id, {}, nullptr);
}

std::string Journal::encode_create_collection(const std::string& collection) {
  return encode_parts("create_collection", collection, {}, {}, nullptr);
}

std::string Journal::encode_create_index(const std::string& collection,
                                         const std::string& field_spec) {
  return encode_parts("create_index", collection, {}, field_spec, nullptr);
}

std::uint64_t Journal::enqueue(std::string payload) {
  if (queue_ == nullptr) return 0;
  JournalMetrics& metrics = JournalMetrics::get();
  bool stalled = false;
  const std::uint64_t seq = queue_->push(std::move(payload), &stalled);
  if (stalled) metrics.backpressure_stalls.add();
  if (seq == 0) {
    util::Log::error("journal " + path_ +
                     " rejected a record (pipeline stopped)");
    return 0;
  }
  metrics.events_enqueued.add();
  return seq;
}

std::uint64_t Journal::last_enqueued() const {
  return queue_ == nullptr ? 0 : queue_->pushed();
}

Status Journal::sync(std::uint64_t seq) {
  if (queue_ == nullptr) {
    return Status(ErrorCode::kDataLoss, "journal is not open");
  }
  const WallClock::time_point begin = WallClock::now();
  std::unique_lock<std::mutex> lock(sync_mutex_);
  sync_cv_.wait(lock, [&] { return flushed_seq_ >= seq; });
  JournalMetrics::get().sync_wait_us.observe(elapsed_us(begin));
  return writer_status_;
}

void Journal::writer_loop() {
  JournalMetrics& metrics = JournalMetrics::get();
  std::vector<std::string> group;
  std::string buffer;
  // Fail-stop: after the first failed group commit nothing more is
  // written, so the file stays a prefix of the enqueue order and no
  // frame can become durable behind one that may not be (under a
  // DeferredSync a checkpoint is enqueued before the wait that would
  // report its batch's failure).
  Status failed = Status::success();
  while (queue_->pop_all(group)) {
    if (!failed.ok()) {
      {
        const std::lock_guard<std::mutex> lock(sync_mutex_);
        flushed_seq_ += group.size();  // waiters get writer_status_
      }
      sync_cv_.notify_all();
      continue;
    }
    // Coalesce the whole group into one buffer: framing + CRC happen
    // here, on the writer thread, never on a mutating thread.
    buffer.clear();
    for (const std::string& payload : group) {
      buffer += frame(payload);
      buffer += '\n';
    }
    const WallClock::time_point begin = WallClock::now();
    Status wrote = Status::success();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (out_ == nullptr || !out_->is_open()) {
        wrote = Status(ErrorCode::kDataLoss, "journal is not open");
      } else {
        wrote = out_->append(buffer);  // one write + one fsync per group
        if (wrote.ok()) wrote = out_->sync();
        if (!wrote.ok()) {
          wrote = Status(ErrorCode::kDataLoss, "journal group commit failed: " +
                                                   wrote.error().message);
        }
      }
    }
    if (!wrote.ok()) {
      metrics.io_errors.add();
      failed = wrote;
    }
    const double flush_us = elapsed_us(begin);
    metrics.groups_committed.add();
    metrics.bytes_written.add(buffer.size());
    metrics.group_size.observe(static_cast<double>(group.size()));
    metrics.flush_latency_us.observe(flush_us);
    util::Log::debug([&] {
      return util::format("journal group_commit size=%zu bytes=%zu flush_us=%.0f",
                          group.size(), buffer.size(), flush_us);
    });
    {
      const std::lock_guard<std::mutex> lock(sync_mutex_);
      flushed_seq_ += group.size();
      if (!wrote.ok() && writer_status_.ok()) writer_status_ = wrote;
    }
    sync_cv_.notify_all();
  }
}

void Journal::stop_writer() {
  if (queue_ != nullptr) queue_->close();
  if (writer_.joinable()) writer_.join();
}

Status Journal::replay(
    const std::string& path,
    const std::function<Status(const JournalRecord&)>& replay,
    ReplayReport* report, const ReplayOptions& options) {
  ReplayReport local_report;
  if (report == nullptr) report = &local_report;
  *report = ReplayReport{};
  // Salvage sidecar, opened on the first quarantined line.
  Vfs& fs = options.vfs == nullptr ? Vfs::real() : *options.vfs;
  std::unique_ptr<File> sidecar;
  const auto sidecar_failed = [&](const util::Error& error) {
    return Status(ErrorCode::kDataLoss, "cannot write quarantine sidecar " +
                                            options.quarantine_path + ": " +
                                            error.message);
  };

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::success();  // nothing to replay
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  report->valid_prefix_bytes = file_size;

  // Stream line by line: peak memory is one record, not the whole file.
  std::string line;
  std::size_t offset = 0;  // byte offset where `line` starts
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t line_start = offset;
    // getline consumed a '\n' unless this line runs to end-of-file, so a
    // line without one is necessarily the file's final line.
    const bool newline_terminated = line_start + line.size() < file_size;
    offset = line_start + line.size() + (newline_terminated ? 1 : 0);
    if (line.empty()) continue;

    std::string why;
    util::Result<std::string> payload = unframe(line);
    util::Result<JournalRecord> record{JournalRecord{}};
    if (!payload.ok()) {
      why = payload.error().message;
    } else {
      record = decode(payload.value());
      if (!record.ok()) why = record.error().message;
    }

    if (!why.empty()) {
      // A bad line with no trailing newline is the signature of a crash
      // mid-append: recover the prefix, drop the tail.  Anywhere else
      // the file is genuinely corrupt — refuse to guess (strict), or
      // quarantine the line and keep going (salvage).
      if (!newline_terminated) {
        report->torn_tail = true;
        report->torn_tail_line = line_number;
        report->valid_prefix_bytes = line_start;
        report->detail = "crash-truncated final record dropped (" + why + ")";
        break;
      }
      if (options.salvage) {
        if (sidecar == nullptr) {
          util::Result<std::unique_ptr<File>> opened =
              fs.open_append(options.quarantine_path);
          if (!opened.ok()) return sidecar_failed(opened.error());
          sidecar = std::move(opened).value();
        }
        const Status kept = sidecar->append(
            "# " + path + " line " + std::to_string(line_number) + ": " + why +
            "\n" + line + "\n");
        if (!kept.ok()) return sidecar_failed(kept.error());
        ++report->quarantined_records;
        if (report->first_quarantined_line == 0) {
          report->first_quarantined_line = line_number;
        }
        report->quarantine_path = options.quarantine_path;
        JournalMetrics::get().quarantined_records.add();
        util::Log::warn("journal " + path + " line " +
                        std::to_string(line_number) + " quarantined: " + why);
        continue;
      }
      return Status(ErrorCode::kParseError,
                    "journal line " + std::to_string(line_number) +
                        " corrupt: " + why);
    }

    const Status status = replay(record.value());
    if (!status.ok()) return status;
    ++report->records_applied;
  }
  // The quarantined lines must be durable before anyone drops them from
  // the journal (Database::open compacts right after a salvage).
  if (sidecar != nullptr) {
    Status synced = sidecar->sync();
    if (synced.ok()) synced = fs.sync_parent_dir(options.quarantine_path);
    if (!synced.ok()) return sidecar_failed(synced.error());
  }
  return Status::success();
}

Status Journal::rewrite(const std::vector<JournalRecord>& records) {
  JournalMetrics& metrics = JournalMetrics::get();
  metrics.compact_runs.add();
  const Status result = rewrite_impl(records);
  if (result.ok()) {
    metrics.compact_records.add(records.size());
  } else {
    metrics.compact_failures.add();
    metrics.io_errors.add();
  }
  return result;
}

Status Journal::rewrite_impl(const std::vector<JournalRecord>& records) {
  // Quiesce: every frame enqueued before this call must be on disk,
  // or the writer would later append stale frames onto the fresh file.
  // (The owning Database additionally gates mutations for the duration,
  // so nothing new is enqueued; holding mutex_ below keeps the writer
  // thread parked even if something slips through.)
  if (queue_ != nullptr) {
    const Status drained = sync(queue_->pushed());
    if (!drained.ok()) return drained;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (path_.empty()) {
    return Status(ErrorCode::kDataLoss, "journal has no path");
  }
  Vfs& fs = vfs();
  const std::string temp_path = path_ + ".tmp";
  {
    util::Result<std::unique_ptr<File>> opened = fs.open_trunc(temp_path);
    if (!opened.ok()) {
      return Status(ErrorCode::kDataLoss,
                    "cannot open " + temp_path + ": " + opened.error().message);
    }
    const std::unique_ptr<File> temp = std::move(opened).value();
    for (const JournalRecord& record : records) {
      const Status wrote = temp->append(frame(encode(record)) + "\n");
      if (!wrote.ok()) {
        return Status(ErrorCode::kDataLoss,
                      "write failed: " + wrote.error().message);
      }
    }
    // fsync the temp *before* the rename: otherwise the rename can become
    // durable while the contents are not, and a crash leaves a renamed
    // but empty/partial journal — losing every committed record.
    const Status synced = temp->sync();
    if (!synced.ok()) {
      return Status(ErrorCode::kDataLoss,
                    "fsync failed: " + synced.error().message);
    }
  }
  if (out_ != nullptr) {
    out_->close();
    out_.reset();
  }
  const Status renamed = fs.rename(temp_path, path_);
  if (!renamed.ok()) {
    state_.store(State::kClosed, std::memory_order_release);
    return Status(ErrorCode::kDataLoss,
                  "rename failed: " + renamed.error().message);
  }
  // fsync the parent directory: until the directory entry is durable a
  // crash can resurrect the old journal (with stale, already-compacted
  // history) in place of the new one.
  const Status dir_synced = fs.sync_parent_dir(path_);
  if (!dir_synced.ok()) {
    state_.store(State::kClosed, std::memory_order_release);
    return Status(ErrorCode::kDataLoss,
                  "directory fsync failed: " + dir_synced.error().message);
  }
  util::Result<std::unique_ptr<File>> reopened = fs.open_append(path_);
  if (!reopened.ok()) {
    state_.store(State::kClosed, std::memory_order_release);
    return Status(ErrorCode::kDataLoss,
                  "cannot reopen journal: " + reopened.error().message);
  }
  out_ = std::move(reopened).value();
  return Status::success();
}

}  // namespace upin::docdb
