// Tests for docdb/journal: group commit, replay, corruption, rewrite.
#include "docdb/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include "support/temp_path.hpp"
#include "util/strings.hpp"

namespace upin::docdb {
namespace {

using util::Value;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test_support::temp_path("journal_test", ".jsonl");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  JournalRecord insert_record(const std::string& id) {
    JournalRecord record;
    record.op = "insert";
    record.collection = "paths";
    record.id = id;
    record.document = Value::object({{"_id", id}, {"v", 1}});
    return record;
  }

  /// Commit one insert per id through the group-commit pipeline (enqueue,
  /// then sync on the last frame).
  void commit_inserts(Journal& journal,
                      std::initializer_list<std::string> ids) {
    std::uint64_t last = 0;
    for (const std::string& id : ids) {
      last = journal.enqueue(
          Journal::encode_insert("paths", id, insert_record(id).document));
      ASSERT_GT(last, 0u);
    }
    ASSERT_TRUE(journal.sync(last).ok());
  }

  /// Open the journal at path_, commit `ids` and close it again.
  void write_inserts(std::initializer_list<std::string> ids) {
    Journal journal;
    ASSERT_TRUE(journal.open(path_).ok());
    commit_inserts(journal, ids);
  }

  std::string path_;
};

TEST_F(JournalTest, AppendAndReplayRoundTrip) {
  write_inserts({"a", "b"});
  std::vector<std::string> ids;
  ASSERT_TRUE(Journal::replay(path_, [&](const JournalRecord& record) {
                ids.push_back(record.id);
                return util::Status::success();
              }).ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b"}));
}

TEST_F(JournalTest, ReplayMissingFileIsEmptySuccess) {
  int calls = 0;
  ASSERT_TRUE(Journal::replay("/nonexistent/journal.jsonl",
                              [&](const JournalRecord&) {
                                ++calls;
                                return util::Status::success();
                              })
                  .ok());
  EXPECT_EQ(calls, 0);
}

TEST_F(JournalTest, ReplaySkipsEmptyLines) {
  {
    std::ofstream out(path_);
    out << R"({"op":"insert","coll":"c","id":"a","doc":{"_id":"a"}})" << "\n\n";
  }
  int calls = 0;
  ASSERT_TRUE(Journal::replay(path_, [&](const JournalRecord&) {
                ++calls;
                return util::Status::success();
              }).ok());
  EXPECT_EQ(calls, 1);
}

TEST_F(JournalTest, ReplayStopsAtCorruptLine) {
  {
    std::ofstream out(path_);
    out << R"({"op":"insert","coll":"c","id":"a","doc":{"_id":"a"}})" << "\n";
    out << "{corrupt\n";
  }
  int calls = 0;
  const auto status = Journal::replay(path_, [&](const JournalRecord&) {
    ++calls;
    return util::Status::success();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kParseError);
  EXPECT_EQ(calls, 1) << "records before the corruption stand";
}

TEST_F(JournalTest, ReplayRejectsRecordsMissingOpOrColl) {
  {
    std::ofstream out(path_);
    out << R"({"id":"a"})" << "\n";
  }
  EXPECT_FALSE(Journal::replay(path_, [](const JournalRecord&) {
                 return util::Status::success();
               }).ok());
}

TEST_F(JournalTest, ReplayPropagatesCallbackError) {
  write_inserts({"a"});
  const auto status = Journal::replay(path_, [](const JournalRecord&) {
    return util::Status(util::ErrorCode::kConflict, "boom");
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kConflict);
}

TEST_F(JournalTest, EnqueueBeforeOpenReturnsZero) {
  Journal journal;
  EXPECT_EQ(journal.enqueue(Journal::encode_insert(
                "paths", "a", insert_record("a").document)),
            0u);
  EXPECT_FALSE(journal.sync(1).ok());
}

TEST_F(JournalTest, RewriteReplacesContents) {
  Journal journal;
  ASSERT_TRUE(journal.open(path_).ok());
  commit_inserts(journal, {"old"});

  ASSERT_TRUE(journal.rewrite({insert_record("fresh")}).ok());

  std::vector<std::string> ids;
  ASSERT_TRUE(Journal::replay(path_, [&](const JournalRecord& record) {
                ids.push_back(record.id);
                return util::Status::success();
              }).ok());
  EXPECT_EQ(ids, std::vector<std::string>{"fresh"});
}

TEST_F(JournalTest, AppendsAfterRewriteLand) {
  Journal journal;
  ASSERT_TRUE(journal.open(path_).ok());
  ASSERT_TRUE(journal.rewrite({insert_record("a")}).ok());
  commit_inserts(journal, {"b"});
  int calls = 0;
  ASSERT_TRUE(Journal::replay(path_, [&](const JournalRecord&) {
                ++calls;
                return util::Status::success();
              }).ok());
  EXPECT_EQ(calls, 2);
}

TEST_F(JournalTest, AppendedRecordsCarryChecksums) {
  write_inserts({"a"});
  std::ifstream in(path_);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(line.starts_with("crc32="));
}

TEST_F(JournalTest, ChecksumMismatchMidFileIsHardError) {
  write_inserts({"a", "b"});
  // Flip one payload byte of the first record (newline-terminated, so it
  // cannot be mistaken for a torn tail).
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  const std::size_t victim = content.find("\"a\"");
  ASSERT_NE(victim, std::string::npos);
  content[victim + 1] = 'z';
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }
  int calls = 0;
  ReplayReport report;
  const auto status = Journal::replay(
      path_,
      [&](const JournalRecord&) {
        ++calls;
        return util::Status::success();
      },
      &report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kParseError);
  EXPECT_NE(status.error().message.find("checksum mismatch"),
            std::string::npos);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(calls, 0);
}

TEST_F(JournalTest, TornTailIsRecoveredAndReported) {
  write_inserts({"a", "b"});
  const std::size_t intact_bytes = std::filesystem::file_size(path_);
  {
    // Simulate a crash mid-append: a partial frame with no newline.
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "crc32=0123abcd {\"op\":\"ins";
  }
  std::vector<std::string> ids;
  ReplayReport report;
  ASSERT_TRUE(Journal::replay(
                  path_,
                  [&](const JournalRecord& record) {
                    ids.push_back(record.id);
                    return util::Status::success();
                  },
                  &report)
                  .ok())
      << "a crash-truncated tail is recoverable, not fatal";
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.torn_tail_line, 3u);
  EXPECT_EQ(report.records_applied, 2u);
  EXPECT_EQ(report.valid_prefix_bytes, intact_bytes);
}

TEST_F(JournalTest, SameGarbageWithNewlineIsHardCorruption) {
  write_inserts({"a"});
  {
    // The identical garbage, but newline-terminated: the writer claimed
    // the record was complete, so this is mid-file corruption.
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "crc32=0123abcd {\"op\":\"ins\n";
  }
  ReplayReport report;
  const auto status = Journal::replay(
      path_, [](const JournalRecord&) { return util::Status::success(); },
      &report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kParseError);
  EXPECT_FALSE(report.torn_tail);
}

TEST_F(JournalTest, TornTailOnUncheckummedGarbageToo) {
  write_inserts({"a"});
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "garbage-with-no-structure";
  }
  ReplayReport report;
  ASSERT_TRUE(Journal::replay(path_,
                              [](const JournalRecord&) {
                                return util::Status::success();
                              },
                              &report)
                  .ok());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.records_applied, 1u);
}

TEST_F(JournalTest, LegacyChecksumlessJournalsStillReplay) {
  {
    // A journal written before per-record checksums: bare JSON lines.
    std::ofstream out(path_);
    out << R"({"op":"insert","coll":"c","id":"a","doc":{"_id":"a"}})" << "\n";
    out << R"({"op":"insert","coll":"c","id":"b","doc":{"_id":"b"}})" << "\n";
  }
  std::vector<std::string> ids;
  ReplayReport report;
  ASSERT_TRUE(Journal::replay(
                  path_,
                  [&](const JournalRecord& record) {
                    ids.push_back(record.id);
                    return util::Status::success();
                  },
                  &report)
                  .ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.records_applied, 2u);
}

TEST_F(JournalTest, MixedLegacyAndChecksummedLinesReplay) {
  {
    std::ofstream out(path_);
    out << R"({"op":"insert","coll":"c","id":"legacy","doc":{"_id":"l"}})"
        << "\n";
  }
  write_inserts({"framed"});
  std::vector<std::string> ids;
  ASSERT_TRUE(Journal::replay(path_, [&](const JournalRecord& record) {
                ids.push_back(record.id);
                return util::Status::success();
              }).ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"legacy", "framed"}));
}

TEST_F(JournalTest, InterleavedLegacyAndFramedLinesReplayInOrder) {
  // A journal that grew across format generations: bare JSON lines
  // interleaved with CRC-framed ones, in both orders.
  {
    std::ofstream out(path_);
    out << R"({"op":"insert","coll":"c","id":"l1","doc":{"_id":"l1"}})"
        << "\n";
  }
  write_inserts({"f1"});
  {
    std::ofstream out(path_, std::ios::app);
    out << R"({"op":"insert","coll":"c","id":"l2","doc":{"_id":"l2"}})"
        << "\n";
  }
  write_inserts({"f2"});
  std::vector<std::string> ids;
  ReplayReport report;
  ASSERT_TRUE(Journal::replay(
                  path_,
                  [&](const JournalRecord& record) {
                    ids.push_back(record.id);
                    return util::Status::success();
                  },
                  &report)
                  .ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"l1", "f1", "l2", "f2"}));
  EXPECT_EQ(report.records_applied, 4u);
  EXPECT_FALSE(report.torn_tail);
}

TEST_F(JournalTest, TornTailAfterLegacyLineIsDetected) {
  std::size_t intact_bytes = 0;
  {
    std::ofstream out(path_);
    out << R"({"op":"insert","coll":"c","id":"legacy","doc":{"_id":"l"}})"
        << "\n";
    out.flush();
    intact_bytes = static_cast<std::size_t>(out.tellp());
    out << R"({"op":"ins)";  // crash mid-append of a legacy-format line
  }
  std::vector<std::string> ids;
  ReplayReport report;
  ASSERT_TRUE(Journal::replay(
                  path_,
                  [&](const JournalRecord& record) {
                    ids.push_back(record.id);
                    return util::Status::success();
                  },
                  &report)
                  .ok());
  EXPECT_EQ(ids, std::vector<std::string>{"legacy"});
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.torn_tail_line, 2u);
  EXPECT_EQ(report.valid_prefix_bytes, intact_bytes);
}

// ------------------------------------------------------- salvage mode

class SalvageTest : public JournalTest {
 protected:
  void SetUp() override {
    JournalTest::SetUp();
    quarantine_ = path_ + ".quarantine";
    std::filesystem::remove(quarantine_);
  }
  void TearDown() override {
    std::filesystem::remove(quarantine_);
    JournalTest::TearDown();
  }

  /// Write three framed records and flip one payload byte of the middle
  /// one (newline kept, so it reads as mid-file corruption).
  void write_bitflipped_journal() {
    write_inserts({"a", "b", "c"});
    std::string content;
    {
      std::ifstream in(path_, std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const std::size_t victim = content.find("\"b\"");
    ASSERT_NE(victim, std::string::npos);
    content[victim + 1] = 'z';
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }

  std::string quarantine_;
};

TEST_F(SalvageTest, StrictReplayStillFailsHard) {
  write_bitflipped_journal();
  const auto status = Journal::replay(
      path_, [](const JournalRecord&) { return util::Status::success(); });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kParseError);
}

TEST_F(SalvageTest, SalvageQuarantinesCorruptLineAndReplaysRest) {
  write_bitflipped_journal();
  ReplayOptions options;
  options.salvage = true;
  options.quarantine_path = quarantine_;
  std::vector<std::string> ids;
  ReplayReport report;
  ASSERT_TRUE(Journal::replay(
                  path_,
                  [&](const JournalRecord& record) {
                    ids.push_back(record.id);
                    return util::Status::success();
                  },
                  &report, options)
                  .ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "c"}))
      << "the corrupt middle record is dropped, its neighbors replay";
  EXPECT_EQ(report.records_applied, 2u);
  EXPECT_EQ(report.quarantined_records, 1u);
  EXPECT_EQ(report.first_quarantined_line, 2u);
  EXPECT_EQ(report.quarantine_path, quarantine_);

  // The sidecar names the source line and reason, then carries the raw
  // bytes so nothing is destroyed, only set aside.
  std::ifstream in(quarantine_);
  std::string header;
  std::string raw;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, raw));
  EXPECT_NE(header.find("line 2"), std::string::npos);
  EXPECT_NE(header.find("checksum mismatch"), std::string::npos);
  EXPECT_TRUE(raw.starts_with("crc32="));
}

TEST_F(SalvageTest, SalvageLeavesTornTailContractUnchanged) {
  write_inserts({"a"});
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "crc32=0123abcd {\"op\":\"ins";  // torn, not quarantined
  }
  ReplayOptions options;
  options.salvage = true;
  options.quarantine_path = quarantine_;
  ReplayReport report;
  ASSERT_TRUE(Journal::replay(
                  path_,
                  [](const JournalRecord&) { return util::Status::success(); },
                  &report, options)
                  .ok());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.quarantined_records, 0u);
  EXPECT_FALSE(std::filesystem::exists(quarantine_));
}

// ------------------------------------------ group-commit pipeline tests

TEST_F(JournalTest, PipelineEnqueueSyncReplayRoundTrip) {
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path_).ok());
    std::uint64_t last = 0;
    for (const char* id : {"a", "b", "c"}) {
      last = journal.enqueue(Journal::encode_insert(
          "paths", id, Value::object({{"_id", id}, {"v", 1}})));
      ASSERT_GT(last, 0u);
    }
    ASSERT_TRUE(journal.sync(last).ok());
  }
  std::vector<std::string> ids;
  ASSERT_TRUE(Journal::replay(path_, [&](const JournalRecord& record) {
                ids.push_back(record.id);
                return util::Status::success();
              }).ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(JournalTest, PipelineFramesCarryValidChecksums) {
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path_).ok());
    const std::uint64_t seq = journal.enqueue(Journal::encode_insert(
        "paths", "a", Value::object({{"_id", "a"}})));
    ASSERT_TRUE(journal.sync(seq).ok());
  }
  std::ifstream in(path_);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(line.starts_with("crc32="));
}

TEST_F(JournalTest, CloseDrainsUnsyncedFrames) {
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path_).ok());
    for (const char* id : {"a", "b"}) {
      ASSERT_GT(journal.enqueue(Journal::encode_insert(
                    "paths", id, Value::object({{"_id", id}}))),
                0u);
    }
    // No sync: the destructor must still commit everything queued.
  }
  int calls = 0;
  ASSERT_TRUE(Journal::replay(path_, [&](const JournalRecord&) {
                ++calls;
                return util::Status::success();
              }).ok());
  EXPECT_EQ(calls, 2);
}

TEST_F(JournalTest, SyncMakesRecordsDurableBeforeReturn) {
  // The sync contract under a crash: a file snapshot taken right
  // after sync() returns (= the bytes a kill would leave behind) holds
  // every synced record; only frames enqueued but not yet group-flushed
  // may be missing, and they form the tail, not holes.
  const std::string snapshot = path_ + ".crash";
  Journal journal;
  ASSERT_TRUE(journal.open(path_).ok());
  (void)journal.enqueue(
      Journal::encode_insert("paths", "a", Value::object({{"_id", "a"}})));
  const std::uint64_t synced = journal.enqueue(
      Journal::encode_insert("paths", "b", Value::object({{"_id", "b"}})));
  ASSERT_GT(synced, 0u);
  ASSERT_TRUE(journal.sync(synced).ok());
  (void)journal.enqueue(
      Journal::encode_insert("paths", "c", Value::object({{"_id", "c"}})));

  std::filesystem::copy_file(
      path_, snapshot,
      std::filesystem::copy_options::overwrite_existing);  // the crash point
  journal.close();

  std::vector<std::string> ids;
  ASSERT_TRUE(Journal::replay(snapshot, [&](const JournalRecord& record) {
                ids.push_back(record.id);
                return util::Status::success();
              }).ok());
  ASSERT_GE(ids.size(), 2u) << "synced records must be on disk";
  const std::vector<std::string> full{"a", "b", "c"};
  EXPECT_TRUE(std::equal(ids.begin(), ids.end(), full.begin()))
      << "a crash loses at most the unflushed tail, never earlier records";
  std::filesystem::remove(snapshot);
}

TEST_F(JournalTest, MultiThreadedWritersReplayCompleteAndPerThreadOrdered) {
  constexpr int kThreads = 4;
  // More frames than Journal::kQueueDepth: exercises backpressure.
  constexpr int kPerThread = 300;
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path_).ok());
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&journal, t] {
        std::uint64_t last = 0;
        for (int i = 0; i < kPerThread; ++i) {
          const std::string id = util::format("t%d_%d", t, i);
          last = journal.enqueue(Journal::encode_insert(
              "paths", id, Value::object({{"_id", id}, {"n", i}})));
          ASSERT_GT(last, 0u);
          if (i % 25 == 24) {
            ASSERT_TRUE(journal.sync(last).ok());
          }
        }
        ASSERT_TRUE(journal.sync(last).ok());
      });
    }
    for (auto& w : writers) w.join();
  }
  std::vector<int> next(kThreads, 0);
  std::size_t total = 0;
  ASSERT_TRUE(Journal::replay(path_, [&](const JournalRecord& record) {
                ++total;
                const auto t = static_cast<std::size_t>(record.id[1] - '0');
                const int i = std::stoi(record.id.substr(3));
                EXPECT_EQ(i, next[t]) << "thread " << t << " out of order";
                ++next[t];
                return util::Status::success();
              }).ok());
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads * kPerThread));
}

TEST_F(JournalTest, EncodeHelpersMatchAppendedRecordFormat) {
  JournalRecord record = insert_record("a");
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path_).ok());
    ASSERT_TRUE(journal.rewrite({record}).ok());
    const std::uint64_t seq = journal.enqueue(
        Journal::encode_insert("paths", "a", record.document));
    ASSERT_TRUE(journal.sync(seq).ok());
  }
  // Pipeline-encoded and record-encoded (compaction) lines are
  // byte-identical.
  std::ifstream in(path_);
  std::string rewrite_line;
  std::string pipeline_line;
  ASSERT_TRUE(std::getline(in, rewrite_line));
  ASSERT_TRUE(std::getline(in, pipeline_line));
  EXPECT_EQ(pipeline_line, rewrite_line);
}

TEST_F(JournalTest, RecordFieldsSurviveRoundTrip) {
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path_).ok());
    const std::uint64_t seq = journal.enqueue(
        Journal::encode_create_index("paths_stats", "path_id"));
    ASSERT_TRUE(journal.sync(seq).ok());
  }
  ASSERT_TRUE(Journal::replay(path_, [&](const JournalRecord& replayed) {
                EXPECT_EQ(replayed.op, "create_index");
                EXPECT_EQ(replayed.collection, "paths_stats");
                EXPECT_EQ(replayed.field, "path_id");
                return util::Status::success();
              }).ok());
}

}  // namespace
}  // namespace upin::docdb
