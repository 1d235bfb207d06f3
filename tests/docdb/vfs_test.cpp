// Tests for docdb/vfs: the real backend round-trips, and FaultVfs
// injects short writes, ENOSPC, fsync failures, crashes and rename
// rollback exactly as scripted.
#include "docdb/vfs.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/temp_path.hpp"

namespace upin::docdb {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class VfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_support::temp_path("vfs_test");
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/file.dat";
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  std::string dir_;
  std::string path_;
};

// ----------------------------------------------------------- RealVfs

TEST_F(VfsTest, RealVfsAppendSyncRoundTrip) {
  Vfs& fs = Vfs::real();
  auto opened = fs.open_append(path_);
  ASSERT_TRUE(opened.ok());
  auto file = std::move(opened).value();
  ASSERT_TRUE(file->append("hello ").ok());
  ASSERT_TRUE(file->append("world").ok());
  ASSERT_TRUE(file->flush().ok());
  ASSERT_TRUE(file->sync().ok());
  file->close();
  EXPECT_FALSE(file->is_open());
  EXPECT_EQ(slurp(path_), "hello world");
}

TEST_F(VfsTest, RealVfsOpenTruncDiscardsContents) {
  Vfs& fs = Vfs::real();
  { std::ofstream out(path_); out << "old"; }
  auto opened = fs.open_trunc(path_);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened.value()->append("new").ok());
  opened.value()->close();
  EXPECT_EQ(slurp(path_), "new");
}

TEST_F(VfsTest, RealVfsRenameTruncateRemove) {
  Vfs& fs = Vfs::real();
  { std::ofstream out(path_); out << "abcdef"; }
  const std::string moved = dir_ + "/moved.dat";
  ASSERT_TRUE(fs.rename(path_, moved).ok());
  ASSERT_TRUE(fs.sync_parent_dir(moved).ok());
  EXPECT_FALSE(std::filesystem::exists(path_));
  ASSERT_TRUE(fs.truncate(moved, 3).ok());
  EXPECT_EQ(slurp(moved), "abc");
  ASSERT_TRUE(fs.remove(moved).ok());
  EXPECT_FALSE(std::filesystem::exists(moved));
}

TEST_F(VfsTest, RealVfsOpenFailsOnBadPath) {
  EXPECT_FALSE(Vfs::real().open_append("/nonexistent/dir/file").ok());
}

// ---------------------------------------------------------- FaultVfs

TEST_F(VfsTest, FaultVfsWritesThroughWhenFaultFree) {
  FaultVfs fs;
  auto opened = fs.open_append(path_);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened.value()->append("payload").ok());
  ASSERT_TRUE(opened.value()->sync().ok());
  opened.value()->close();
  EXPECT_EQ(slurp(path_), "payload");
  EXPECT_FALSE(fs.crashed());
  EXPECT_EQ(fs.op_count(), 3u);  // open + append + sync
}

TEST_F(VfsTest, ShortWriteLandsHalfAndFails) {
  FaultVfs fs(FaultVfsConfig{.short_write_at = 1});
  auto file = std::move(fs.open_append(path_)).value();
  const auto status = file->append("12345678");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("short write"), std::string::npos);
  EXPECT_EQ(slurp(path_), "1234") << "a torn prefix, not a clean failure";
  // The next append is unaffected.
  ASSERT_TRUE(file->append("rest").ok());
}

TEST_F(VfsTest, DiskBudgetActsLikeEnospc) {
  FaultVfsConfig config;
  config.disk_budget_bytes = 10;
  FaultVfs fs(config);
  auto file = std::move(fs.open_append(path_)).value();
  ASSERT_TRUE(file->append("12345678").ok());  // 8 of 10
  const auto status = file->append("ABCDEFGH");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("no space"), std::string::npos);
  EXPECT_EQ(slurp(path_), "12345678AB") << "budget-truncated prefix lands";
}

TEST_F(VfsTest, FailedSyncLeavesDataVolatile) {
  FaultVfs fs(FaultVfsConfig{.fail_sync_at = 1});
  auto file = std::move(fs.open_append(path_)).value();
  ASSERT_TRUE(file->append("doomed").ok());
  ASSERT_FALSE(file->sync().ok());
  // The failed sync promoted nothing: at a crash only an opportunistic
  // writeback fraction of the tail survives (ops_ == 3 -> 3/4 here),
  // never the guaranteed whole.
  fs.crash_now();
  EXPECT_EQ(slurp(path_), "doom");
}

TEST_F(VfsTest, CrashKeepsDurablePrefixDropsUnsyncedTail) {
  FaultVfs fs;
  auto file = std::move(fs.open_append(path_)).value();
  ASSERT_TRUE(file->append("AAAA").ok());
  ASSERT_TRUE(file->sync().ok());
  ASSERT_TRUE(file->append("BBBB").ok());
  fs.crash_now();  // ops_ == 4 -> 0/4 of the unsynced tail survives
  EXPECT_EQ(slurp(path_), "AAAA");
  EXPECT_TRUE(fs.crashed());
  // Post-crash, every operation is refused.
  EXPECT_FALSE(file->append("x").ok());
  EXPECT_FALSE(fs.open_append(path_).ok());
  EXPECT_FALSE(fs.truncate(path_, 0).ok());
}

TEST_F(VfsTest, CrashCanLeaveTornFractionOfTail) {
  FaultVfs fs;
  auto file = std::move(fs.open_append(path_)).value();
  ASSERT_TRUE(file->append("AAAA").ok());
  ASSERT_TRUE(file->sync().ok());
  ASSERT_TRUE(file->append("BBBB").ok());
  ASSERT_TRUE(file->append("CCCC").ok());
  ASSERT_TRUE(file->append("DDDD").ok());
  fs.crash_now();  // ops_ == 6 -> 2/4 of the 12-byte tail survives
  EXPECT_EQ(slurp(path_), "AAAABBBBCC") << "a torn, prefix-shaped tail";
}

TEST_F(VfsTest, ScriptedCrashFiresAtExactOp) {
  FaultVfs fs(FaultVfsConfig{.crash_at_op = 2});
  auto file = std::move(fs.open_append(path_)).value();  // op 1
  const auto status = file->append("never");             // op 2: crash
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("crash"), std::string::npos);
  EXPECT_TRUE(fs.crashed());
  EXPECT_FALSE(std::filesystem::exists(path_))
      << "nothing was ever synced, so the file does not survive";
}

TEST_F(VfsTest, UnsyncedRenameRollsBackAtCrash) {
  FaultVfs fs;
  const std::string renamed = dir_ + "/renamed.dat";
  {
    auto file = std::move(fs.open_append(path_)).value();
    ASSERT_TRUE(file->append("contents").ok());
    ASSERT_TRUE(file->sync().ok());
  }
  ASSERT_TRUE(fs.rename(path_, renamed).ok());
  EXPECT_TRUE(std::filesystem::exists(renamed));
  fs.crash_now();  // parent dir never synced: the rename is lost
  EXPECT_EQ(slurp(path_), "contents") << "old directory entry resurfaces";
  EXPECT_FALSE(std::filesystem::exists(renamed));
}

TEST_F(VfsTest, DirSyncedRenameSurvivesCrash) {
  FaultVfs fs;
  const std::string renamed = dir_ + "/renamed.dat";
  {
    auto file = std::move(fs.open_append(path_)).value();
    ASSERT_TRUE(file->append("contents").ok());
    ASSERT_TRUE(file->sync().ok());
  }
  ASSERT_TRUE(fs.rename(path_, renamed).ok());
  ASSERT_TRUE(fs.sync_parent_dir(renamed).ok());
  fs.crash_now();
  EXPECT_EQ(slurp(renamed), "contents");
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(VfsTest, RenameOverExistingRestoresPriorTargetAtCrash) {
  FaultVfs fs;
  const std::string target = dir_ + "/target.dat";
  for (const auto& [p, text] : {std::pair{path_, std::string("fresh")},
                                std::pair{target, std::string("stale")}}) {
    auto file = std::move(fs.open_append(p)).value();
    ASSERT_TRUE(file->append(text).ok());
    ASSERT_TRUE(file->sync().ok());
  }
  ASSERT_TRUE(fs.rename(path_, target).ok());
  EXPECT_EQ(slurp(target), "fresh");
  fs.crash_now();
  EXPECT_EQ(slurp(target), "stale") << "the overwritten file comes back";
  EXPECT_EQ(slurp(path_), "fresh");
}

TEST_F(VfsTest, TruncationIsTracked) {
  FaultVfs fs;
  {
    auto file = std::move(fs.open_append(path_)).value();
    ASSERT_TRUE(file->append("123456").ok());
    ASSERT_TRUE(file->sync().ok());
  }
  ASSERT_TRUE(fs.truncate(path_, 3).ok());
  EXPECT_EQ(slurp(path_), "123");
}

TEST_F(VfsTest, PreExistingFilesAreAssumedDurable) {
  { std::ofstream out(path_); out << "inherited"; }
  FaultVfs fs;
  auto file = std::move(fs.open_append(path_)).value();
  ASSERT_TRUE(file->append("+tail").ok());
  ASSERT_TRUE(file->append("+more").ok());
  ASSERT_TRUE(file->append("+gone").ok());
  fs.crash_now();  // ops_ == 4 -> none of the unsynced tail survives
  EXPECT_EQ(slurp(path_), "inherited")
      << "contents from before the run survive; the unsynced tail does not";
}

}  // namespace
}  // namespace upin::docdb
