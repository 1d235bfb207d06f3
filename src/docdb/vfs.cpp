#include "docdb/vfs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace upin::docdb {

using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

/// write(2) until done, retrying EINTR and kernel short writes.
Status write_all(int fd, const char* data, std::size_t size,
                 const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(ErrorCode::kDataLoss,
                    "write failed: " + path + ": " + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::success();
}

std::string parent_dir(const std::string& path) {
  const std::string parent = std::filesystem::path(path).parent_path().string();
  return parent.empty() ? std::string(".") : parent;
}

/// POSIX file handle: unbuffered writes, real fsync.
class RealFile final : public File {
 public:
  RealFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~RealFile() override { close(); }

  Status append(std::string_view data) override {
    if (fd_ < 0) return Status(ErrorCode::kDataLoss, "file closed: " + path_);
    return write_all(fd_, data.data(), data.size(), path_);
  }

  Status flush() override { return Status::success(); }  // unbuffered

  Status sync() override {
    if (fd_ < 0) return Status(ErrorCode::kDataLoss, "file closed: " + path_);
    if (::fsync(fd_) != 0) {
      return Status(ErrorCode::kDataLoss,
                    "fsync failed: " + path_ + ": " + std::strerror(errno));
    }
    return Status::success();
  }

  void close() override {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  [[nodiscard]] bool is_open() const noexcept override { return fd_ >= 0; }

 private:
  int fd_;
  std::string path_;
};

Result<std::unique_ptr<File>> open_real(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return util::Error{ErrorCode::kDataLoss,
                       "cannot open " + path + ": " + std::strerror(errno)};
  }
  return std::unique_ptr<File>(new RealFile(fd, path));
}

}  // namespace

Vfs& Vfs::real() {
  static RealVfs instance;
  return instance;
}

Result<std::unique_ptr<File>> RealVfs::open_append(const std::string& path) {
  return open_real(path, O_WRONLY | O_CREAT | O_APPEND);
}

Result<std::unique_ptr<File>> RealVfs::open_trunc(const std::string& path) {
  return open_real(path, O_WRONLY | O_CREAT | O_TRUNC);
}

Status RealVfs::rename(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status(ErrorCode::kDataLoss,
                  "rename " + from + " -> " + to + ": " + std::strerror(errno));
  }
  return Status::success();
}

Status RealVfs::sync_parent_dir(const std::string& path) {
  const std::string dir = parent_dir(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status(ErrorCode::kDataLoss,
                  "cannot open directory " + dir + ": " + std::strerror(errno));
  }
  Status result = Status::success();
  if (::fsync(fd) != 0) {
    result = Status(ErrorCode::kDataLoss,
                    "fsync directory " + dir + ": " + std::strerror(errno));
  }
  ::close(fd);
  return result;
}

Status RealVfs::truncate(const std::string& path, std::uint64_t size) {
  std::error_code error;
  std::filesystem::resize_file(path, size, error);
  if (error) {
    return Status(ErrorCode::kDataLoss,
                  "truncate " + path + ": " + error.message());
  }
  return Status::success();
}

Status RealVfs::remove(const std::string& path) {
  std::error_code error;
  std::filesystem::remove(path, error);
  if (error) {
    return Status(ErrorCode::kDataLoss,
                  "remove " + path + ": " + error.message());
  }
  return Status::success();
}

// ------------------------------------------------------------- FaultVfs

/// A FaultFile writes through to a real fd so readers (replay, post-crash
/// reopen) see ordinary files, while the owner mirrors flushed/durable
/// images for crash accounting.
class FaultFile final : public File {
 public:
  FaultFile(FaultVfs* owner, std::string path, int fd)
      : owner_(owner), path_(std::move(path)), fd_(fd) {}
  ~FaultFile() override { close(); }

  Status append(std::string_view data) override {
    if (fd_ < 0) return Status(ErrorCode::kDataLoss, "file closed: " + path_);
    return owner_->file_append(path_, fd_, data);
  }

  Status flush() override { return Status::success(); }

  Status sync() override {
    if (fd_ < 0) return Status(ErrorCode::kDataLoss, "file closed: " + path_);
    return owner_->file_sync(path_);
  }

  void close() override {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  [[nodiscard]] bool is_open() const noexcept override { return fd_ >= 0; }

 private:
  FaultVfs* owner_;
  std::string path_;
  int fd_;
};

namespace {

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_whole_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

}  // namespace

FaultVfs::FaultVfs(FaultVfsConfig config) : config_(config) {}

std::size_t FaultVfs::op_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

bool FaultVfs::crashed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return crashed_;
}

void FaultVfs::crash_now() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!crashed_) crash_locked();
}

Status FaultVfs::begin_op(const char* what) {
  if (crashed_) {
    return Status(ErrorCode::kDataLoss,
                  std::string("vfs crashed (") + what + " refused)");
  }
  ++ops_;
  if (config_.crash_at_op != 0 && ops_ == config_.crash_at_op) {
    crash_locked();
    return Status(ErrorCode::kDataLoss,
                  std::string("simulated crash at ") + what);
  }
  return Status::success();
}

FaultVfs::FileState& FaultVfs::track_locked(const std::string& path) {
  auto it = states_.find(path);
  if (it == states_.end()) {
    // Pre-existing contents (e.g. a journal from an earlier run segment)
    // are assumed durable: they survived however that run ended.
    FileState state;
    if (std::filesystem::exists(path)) {
      state.durable = read_whole_file(path);
      state.flushed = state.durable;
      state.durable_exists = true;
    }
    it = states_.emplace(path, std::move(state)).first;
  }
  return it->second;
}

void FaultVfs::crash_locked() {
  // 1. Renames whose directory was never synced roll back: the old
  //    directory entry resurfaces.  Newest first, so chains unwind.
  for (auto it = pending_renames_.rbegin(); it != pending_renames_.rend();
       ++it) {
    states_[it->from] = it->from_state;
    if (it->to_state.has_value()) {
      states_[it->to] = *it->to_state;
    } else {
      states_.erase(it->to);
      std::error_code ignored;
      std::filesystem::remove(it->to, ignored);
    }
  }
  pending_renames_.clear();

  // 2. Freeze every tracked file: durable image plus a deterministic
  //    fraction (quarters, varied by the crash point so a matrix sweeps
  //    whole-tail, partial-tail and no-tail survivals) of the unsynced
  //    tail — the torn-tail signature a kernel leaves.
  const std::size_t quarters = ops_ % 4;
  for (auto& [path, state] : states_) {
    std::string image = state.durable;
    if (state.flushed.size() > state.durable.size() &&
        state.flushed.compare(0, state.durable.size(), state.durable) == 0) {
      const std::size_t tail = state.flushed.size() - state.durable.size();
      image += state.flushed.substr(state.durable.size(), tail * quarters / 4);
    }
    if (image.empty() && !state.durable_exists) {
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
    } else {
      write_whole_file(path, image);
    }
  }
  crashed_ = true;
}

Result<std::unique_ptr<File>> FaultVfs::open_append(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Status op = begin_op("open_append");
  if (!op.ok()) return util::Error{op.error()};
  track_locked(path);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return util::Error{ErrorCode::kDataLoss,
                       "cannot open " + path + ": " + std::strerror(errno)};
  }
  return std::unique_ptr<File>(new FaultFile(this, path, fd));
}

Result<std::unique_ptr<File>> FaultVfs::open_trunc(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Status op = begin_op("open_trunc");
  if (!op.ok()) return util::Error{op.error()};
  // Track *before* truncating, so a pre-existing durable image is
  // remembered: truncation is volatile until the next sync.
  FileState& state = track_locked(path);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::Error{ErrorCode::kDataLoss,
                       "cannot open " + path + ": " + std::strerror(errno)};
  }
  state.flushed.clear();
  return std::unique_ptr<File>(new FaultFile(this, path, fd));
}

Status FaultVfs::file_append(const std::string& path, int fd,
                             std::string_view data) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Status op = begin_op("append");
  if (!op.ok()) return op;
  ++appends_;

  std::size_t allow = data.size();
  std::string fault;
  if (config_.short_write_at != 0 && appends_ == config_.short_write_at) {
    allow = data.size() / 2;
    fault = "short write (injected)";
  }
  if (config_.disk_budget_bytes != 0) {
    const std::uint64_t remaining =
        config_.disk_budget_bytes > bytes_appended_
            ? config_.disk_budget_bytes - bytes_appended_
            : 0;
    if (remaining < allow) {
      allow = static_cast<std::size_t>(remaining);
      fault = "no space left on device (injected)";
    }
  }

  FileState& state = track_locked(path);
  const Status wrote = write_all(fd, data.data(), allow, path);
  if (!wrote.ok()) return wrote;
  state.flushed.append(data.substr(0, allow));
  bytes_appended_ += allow;
  if (!fault.empty()) {
    return Status(ErrorCode::kDataLoss, fault + ": " + path);
  }
  return Status::success();
}

Status FaultVfs::file_sync(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Status op = begin_op("sync");
  if (!op.ok()) return op;
  ++syncs_;
  if (config_.fail_sync_at != 0 && syncs_ == config_.fail_sync_at) {
    return Status(ErrorCode::kDataLoss, "fsync failed (injected): " + path);
  }
  FileState& state = track_locked(path);
  state.durable = state.flushed;
  state.durable_exists = true;
  return Status::success();
}

Status FaultVfs::rename(const std::string& from, const std::string& to) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Status op = begin_op("rename");
  if (!op.ok()) return op;
  ++renames_;
  if (config_.fail_rename_at != 0 && renames_ == config_.fail_rename_at) {
    return Status(ErrorCode::kDataLoss,
                  "rename failed (injected): " + from + " -> " + to);
  }
  FileState& from_state = track_locked(from);
  PendingRename pending;
  pending.from = from;
  pending.to = to;
  pending.from_state = from_state;
  if (const auto it = states_.find(to); it != states_.end()) {
    pending.to_state = it->second;
  } else if (std::filesystem::exists(to)) {
    FileState prior;
    prior.durable = read_whole_file(to);
    prior.flushed = prior.durable;
    prior.durable_exists = true;
    pending.to_state = std::move(prior);
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status(ErrorCode::kDataLoss,
                  "rename " + from + " -> " + to + ": " + std::strerror(errno));
  }
  states_[to] = std::move(from_state);
  states_.erase(from);
  pending_renames_.push_back(std::move(pending));
  return Status::success();
}

Status FaultVfs::sync_parent_dir(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Status op = begin_op("sync_parent_dir");
  if (!op.ok()) return op;
  // Directory entries are durable now: committed renames can no longer
  // roll back.  (Single-directory model — journals and their temps live
  // side by side.)
  (void)path;
  pending_renames_.clear();
  return Status::success();
}

Status FaultVfs::truncate(const std::string& path, std::uint64_t size) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Status op = begin_op("truncate");
  if (!op.ok()) return op;
  FileState& state = track_locked(path);
  std::error_code error;
  std::filesystem::resize_file(path, size, error);
  if (error) {
    return Status(ErrorCode::kDataLoss,
                  "truncate " + path + ": " + error.message());
  }
  if (state.flushed.size() > size) state.flushed.resize(size);
  return Status::success();
}

Status FaultVfs::remove(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Status op = begin_op("remove");
  if (!op.ok()) return op;
  states_.erase(path);
  std::error_code error;
  std::filesystem::remove(path, error);
  if (error) {
    return Status(ErrorCode::kDataLoss,
                  "remove " + path + ": " + error.message());
  }
  return Status::success();
}

}  // namespace upin::docdb
