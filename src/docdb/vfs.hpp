// vfs.hpp — pluggable filesystem seam under the docdb storage engine.
//
// The journal used to talk to std::ofstream directly, which made two
// things impossible: (1) honest durability — there is no fsync behind a
// stream flush, so "flushed" data could still die with the page cache —
// and (2) storage fault injection.  The paper's pipeline exists to keep
// *continuous* measurements flowing into storage (§4.1.2), and week-long
// SCIONLab campaigns cannot afford to lose a dataset to one disk hiccup,
// so the storage side gets the same treatment PR 1 gave the network side
// (`simnet::FaultPlan`): every file operation goes through a `Vfs`, and a
// deterministic `FaultVfs` can inject short writes, ENOSPC, fsync
// failures and scripted crash points.
//
// Durability model (shared by both implementations):
//   * append() — data handed to the OS (visible to readers immediately);
//   * flush()  — no-op for the unbuffered real backend, kept for
//     completeness;
//   * sync()   — data durable across a crash (fsync on the real backend).
//
// `FaultVfs` tracks, per file, the *flushed* image (what a reader sees
// now) and the *durable* image (what survives a crash).  A scripted
// crash point freezes every file to durable-prefix + a deterministic
// fraction of the unsynced tail — exactly the torn-tail signature a real
// kernel leaves — and rolls back renames whose parent directory was
// never synced.  After the crash every operation fails, so the test can
// reopen the frozen files with a fresh (real) VFS and assert recovery.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace upin::docdb {

/// A writable file handle.  Implementations are not thread-safe per se;
/// the journal serializes access under its own file mutex.
class File {
 public:
  virtual ~File() = default;

  /// Hand `data` to the OS.  On failure some prefix of `data` may have
  /// landed (short write / out of space) — the file is torn, not clean.
  [[nodiscard]] virtual util::Status append(std::string_view data) = 0;

  /// Push any user-space buffer to the OS (no-op for unbuffered backends).
  [[nodiscard]] virtual util::Status flush() = 0;

  /// Make everything appended so far durable across a crash (fsync).
  [[nodiscard]] virtual util::Status sync() = 0;

  virtual void close() = 0;
  [[nodiscard]] virtual bool is_open() const noexcept = 0;
};

/// Filesystem operations the storage engine needs.  Implementations must
/// be thread-safe (the journal writer thread and mutating threads call
/// concurrently) and must outlive every Journal/Database opened on them.
class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Open (creating if needed) for appending.
  [[nodiscard]] virtual util::Result<std::unique_ptr<File>> open_append(
      const std::string& path) = 0;
  /// Open truncating any existing contents.
  [[nodiscard]] virtual util::Result<std::unique_ptr<File>> open_trunc(
      const std::string& path) = 0;
  /// Atomically replace `to` with `from`.  NOT durable until the parent
  /// directory is synced — a crash in between may resurrect the old file.
  [[nodiscard]] virtual util::Status rename(const std::string& from,
                                            const std::string& to) = 0;
  /// fsync the directory containing `path`, making renames/creations in
  /// it durable.
  [[nodiscard]] virtual util::Status sync_parent_dir(
      const std::string& path) = 0;
  /// Shrink `path` to `size` bytes (torn-tail truncation on recovery).
  [[nodiscard]] virtual util::Status truncate(const std::string& path,
                                              std::uint64_t size) = 0;
  [[nodiscard]] virtual util::Status remove(const std::string& path) = 0;

  /// The process-wide real (POSIX) filesystem.
  [[nodiscard]] static Vfs& real();
};

/// POSIX-backed implementation: unbuffered fd writes, real fsync.
class RealVfs final : public Vfs {
 public:
  [[nodiscard]] util::Result<std::unique_ptr<File>> open_append(
      const std::string& path) override;
  [[nodiscard]] util::Result<std::unique_ptr<File>> open_trunc(
      const std::string& path) override;
  [[nodiscard]] util::Status rename(const std::string& from,
                                    const std::string& to) override;
  [[nodiscard]] util::Status sync_parent_dir(const std::string& path) override;
  [[nodiscard]] util::Status truncate(const std::string& path,
                                      std::uint64_t size) override;
  [[nodiscard]] util::Status remove(const std::string& path) override;
};

/// Deterministic fault schedule for a FaultVfs.  All injection is off by
/// default; indices are 1-based and count operations of that kind across
/// the whole VFS (all files), so a script is reproducible regardless of
/// which file an operation lands on.
struct FaultVfsConfig {
  /// Total append budget in bytes; once exhausted further appends land a
  /// prefix and fail like ENOSPC.  0 = unlimited.
  std::uint64_t disk_budget_bytes = 0;
  /// The Nth append() lands only the first half of its data, then fails.
  std::size_t short_write_at = 0;
  /// The Nth sync() fails; the data stays volatile (lost at a crash).
  std::size_t fail_sync_at = 0;
  /// The Nth rename() fails; nothing moves.
  std::size_t fail_rename_at = 0;
  /// Crash *instead of* executing the Nth VFS operation: every file is
  /// frozen to its crash image and all later operations fail.
  std::size_t crash_at_op = 0;
};

/// Fault-injecting VFS.  Writes through to real files (so replay and
/// post-crash reopen read ordinary paths) while tracking durable/flushed
/// images in memory; a crash point rewrites the real files to the image a
/// kernel would have left.  Test-only: file contents are mirrored in
/// memory, so keep journals test-sized.
class FaultVfs final : public Vfs {
 public:
  explicit FaultVfs(FaultVfsConfig config = {});

  [[nodiscard]] util::Result<std::unique_ptr<File>> open_append(
      const std::string& path) override;
  [[nodiscard]] util::Result<std::unique_ptr<File>> open_trunc(
      const std::string& path) override;
  [[nodiscard]] util::Status rename(const std::string& from,
                                    const std::string& to) override;
  [[nodiscard]] util::Status sync_parent_dir(const std::string& path) override;
  [[nodiscard]] util::Status truncate(const std::string& path,
                                      std::uint64_t size) override;
  [[nodiscard]] util::Status remove(const std::string& path) override;

  /// Operations executed (or attempted) so far — run a fault-free probe
  /// first to size a crash matrix.
  [[nodiscard]] std::size_t op_count() const;
  [[nodiscard]] bool crashed() const;
  /// Trigger the crash immediately (outside the scripted schedule).
  void crash_now();

 private:
  friend class FaultFile;

  struct FileState {
    std::string durable;       ///< survives a crash
    std::string flushed;       ///< what a reader sees right now
    bool durable_exists = false;  ///< file existed at last sync (or pre-run)
  };
  struct PendingRename {
    std::string from;
    std::string to;
    FileState from_state;                  ///< rolled back to `from` at crash
    std::optional<FileState> to_state;     ///< prior `to`, if it existed
  };

  /// Count one operation; crash here if the script says so.  Caller must
  /// hold mutex_.
  [[nodiscard]] util::Status begin_op(const char* what);
  /// Freeze every file to its crash image and refuse all later work.
  /// Caller must hold mutex_.
  void crash_locked();
  /// Load (durable) on-disk contents of an untracked path.  Caller must
  /// hold mutex_.
  FileState& track_locked(const std::string& path);

  // File-handle callbacks (lock internally).
  [[nodiscard]] util::Status file_append(const std::string& path,
                                         int fd, std::string_view data);
  [[nodiscard]] util::Status file_sync(const std::string& path);

  FaultVfsConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, FileState> states_;
  std::vector<PendingRename> pending_renames_;
  std::size_t ops_ = 0;
  std::size_t appends_ = 0;
  std::size_t syncs_ = 0;
  std::size_t renames_ = 0;
  std::uint64_t bytes_appended_ = 0;
  bool crashed_ = false;
};

}  // namespace upin::docdb
