// Tests for docdb/database: collections, durability, write guard.
#include "docdb/database.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>

#include "docdb/vfs.hpp"
#include "obs/metrics.hpp"
#include "support/temp_path.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace upin::docdb {
namespace {

using util::ErrorCode;
using util::Value;

Document doc(const char* json) { return Value::parse(json).value(); }

TEST(Database, CollectionIsCreatedOnDemandAndStable) {
  Database db;
  Collection& a = db.collection("paths");
  Collection& b = db.collection("paths");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(db.collection_names(), std::vector<std::string>{"paths"});
}

TEST(Database, FindCollectionWithoutCreating) {
  Database db;
  EXPECT_EQ(db.find_collection("nope"), nullptr);
  db.collection("real");
  EXPECT_NE(db.find_collection("real"), nullptr);
  EXPECT_EQ(db.collection_names().size(), 1u);
}

TEST(Database, NamesAreSorted) {
  Database db;
  db.collection("zeta");
  db.collection("alpha");
  EXPECT_EQ(db.collection_names(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

class DurableDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test_support::temp_path("db_test", ".jsonl");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(DurableDatabaseTest, InsertSurvivesReopen) {
  {
    auto db = Database::open(path_);
    ASSERT_TRUE(db.ok());
    EXPECT_TRUE(db.value()->is_durable());
    ASSERT_TRUE(db.value()
                    ->collection("paths")
                    .insert_one(doc(R"({"_id": "2_1", "hop_count": 5})"))
                    .ok());
  }
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  const auto found = reopened.value()->collection("paths").find_by_id("2_1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().get("hop_count")->as_int(), 5);
}

TEST_F(DurableDatabaseTest, DeleteSurvivesReopen) {
  {
    auto db = Database::open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->collection("c").insert_one(doc(R"({"_id": "a"})")).ok());
    ASSERT_TRUE(db.value()->collection("c").insert_one(doc(R"({"_id": "b"})")).ok());
    EXPECT_TRUE(db.value()->collection("c").delete_by_id("a"));
  }
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened.value()->collection("c").find_by_id("a").ok());
  EXPECT_TRUE(reopened.value()->collection("c").find_by_id("b").ok());
}

TEST_F(DurableDatabaseTest, IndexDeclarationsSurviveReopen) {
  {
    auto db = Database::open(path_);
    ASSERT_TRUE(db.ok());
    Collection& stats = db.value()->collection("paths_stats");
    // Declared before any compact(): only the live journal meta-record
    // can carry it across the reopen.
    stats.create_index("path_id");
    stats.create_index("path_id,timestamp_ms");
    ASSERT_TRUE(
        stats.insert_one(doc(R"({"path_id": 1, "timestamp_ms": 10})")).ok());
  }
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  Collection& stats = reopened.value()->collection("paths_stats");
  EXPECT_EQ(stats.indexed_fields(),
            (std::vector<std::string>{"path_id", "path_id,timestamp_ms"}));
  // The rebuilt index answers queries (and the planner uses it).
  const auto query =
      Filter::compile(Value::parse(R"({"path_id": 1})").value()).value();
  EXPECT_EQ(stats.count(query), 1u);
  EXPECT_EQ(stats.explain(query).get("plan")->as_string(), "index_point");
}

TEST_F(DurableDatabaseTest, IndexDeclarationsSurviveCompactAndReopen) {
  {
    auto db = Database::open(path_);
    ASSERT_TRUE(db.ok());
    Collection& stats = db.value()->collection("s");
    stats.create_index("a,b");
    ASSERT_TRUE(stats.insert_one(doc(R"({"a": 1, "b": 2})")).ok());
    ASSERT_TRUE(db.value()->compact().ok());
  }
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->collection("s").indexed_fields(),
            std::vector<std::string>{"a,b"});
}

TEST_F(DurableDatabaseTest, ParallelWritersReplayToIdenticalState) {
  // The group-commit pipeline stress: concurrent insert_many / insert_one
  // callers on the same collection, then a reopen must reproduce the
  // exact in-memory document set (race-checked under TSan in CI).
  constexpr int kWriters = 4;
  constexpr int kBatches = 10;
  constexpr int kBatchSize = 24;  // a destination-sized batch (§4.2.2)
  std::map<std::string, std::string> expected;
  {
    auto opened = Database::open(path_);
    ASSERT_TRUE(opened.ok());
    Database& db = *opened.value();
    Collection& coll = db.collection("paths_stats");
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&coll, w] {
        for (int b = 0; b < kBatches; ++b) {
          std::vector<Document> batch;
          for (int i = 0; i < kBatchSize; ++i) {
            const std::string id = util::format("w%d_b%d_%d", w, b, i);
            batch.push_back(doc(("{\"_id\": \"" + id + "\", \"w\": " +
                                 std::to_string(w) + ", \"n\": " +
                                 std::to_string(b * kBatchSize + i) + "}")
                                    .c_str()));
          }
          EXPECT_TRUE(coll.insert_many(std::move(batch)).ok());
        }
        // A sprinkle of single inserts exercises the same sync path.
        EXPECT_TRUE(
            coll.insert_one(doc(("{\"_id\": \"solo_" + std::to_string(w) +
                                 "\"}")
                                    .c_str()))
                .ok());
      });
    }
    for (auto& t : writers) t.join();
    coll.for_each([&](const Document& d) {
      expected.emplace(std::string(document_id(d).value_or("")), d.dump());
    });
    ASSERT_EQ(expected.size(),
              static_cast<std::size_t>(kWriters * (kBatches * kBatchSize + 1)));
  }

  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  Collection& replayed = reopened.value()->collection("paths_stats");
  ASSERT_EQ(replayed.size(), expected.size());
  std::size_t matched = 0;
  replayed.for_each([&](const Document& d) {
    const auto it = expected.find(std::string(document_id(d).value_or("")));
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(it->second, d.dump());
    ++matched;
  });
  EXPECT_EQ(matched, expected.size());
}

TEST_F(DurableDatabaseTest, ShallowJournalQueueStillCommitsEverything) {
  // A batch larger than the journal queue forces backpressure mid-batch
  // (with the collection lock held); nothing may be lost or reordered.
  const std::size_t batch_size = Journal::kQueueDepth + 512;
  std::vector<std::string> ids;
  {
    auto opened = Database::open(path_);
    ASSERT_TRUE(opened.ok());
    std::vector<Document> batch;
    for (std::size_t i = 0; i < batch_size; ++i) {
      ids.push_back(util::format("d%zu", i));
      batch.push_back(Value::object({{"_id", ids.back()}}));
    }
    ASSERT_TRUE(
        opened.value()->collection("c").insert_many(std::move(batch)).ok());
  }
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  std::vector<std::string> replayed;
  reopened.value()->collection("c").for_each([&](const Document& d) {
    replayed.emplace_back(document_id(d).value_or(""));
  });
  EXPECT_EQ(replayed, ids);
}

TEST_F(DurableDatabaseTest, InsertManyEnqueuesEveryFrameAndSyncsOnce) {
  // Collections enqueue straight to the group-commit writer: one frame
  // per document, one durability wait per call — a batch of N costs N
  // frames but a single sync (§4.2.2).
  obs::Counter& enqueued =
      obs::Registry::global().counter("upin_journal_events_enqueued_total");
  obs::LatencyHistogram& sync_waits = obs::Registry::global().histogram(
      "upin_journal_sync_wait_us", 0.0, 5000.0, 50);
  auto opened = Database::open(path_);
  ASSERT_TRUE(opened.ok());
  Collection& coll = opened.value()->collection("c");

  std::uint64_t frames = enqueued.value();
  std::uint64_t waits = sync_waits.total();
  ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "a"})")).ok());
  EXPECT_EQ(enqueued.value() - frames, 1u);
  EXPECT_EQ(sync_waits.total() - waits, 1u);

  constexpr std::size_t kBatch = 5;
  std::vector<Document> batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(Value::object({{"_id", "b" + std::to_string(i)}}));
  }
  frames = enqueued.value();
  waits = sync_waits.total();
  ASSERT_TRUE(coll.insert_many(std::move(batch)).ok());
  EXPECT_EQ(enqueued.value() - frames, kBatch) << "one frame per document";
  EXPECT_EQ(sync_waits.total() - waits, 1u) << "one durability wait per batch";
}

/// The writes of one campaign unit: a stats batch, a checkpoint and a
/// metrics snapshot replacing the previous one.
void write_unit(Database& db, int unit) {
  const std::string n = std::to_string(unit);
  std::vector<Document> batch;
  batch.push_back(Value::object({{"_id", "s" + n + "a"}, {"unit", unit}}));
  batch.push_back(Value::object({{"_id", "s" + n + "b"}, {"unit", unit}}));
  ASSERT_TRUE(db.collection("stats").insert_many(std::move(batch)).ok());
  ASSERT_TRUE(db.collection("checkpoints")
                  .insert_one(Value::object({{"_id", "c" + n}}))
                  .ok());
  db.collection("metrics").delete_by_id("latest");
  ASSERT_TRUE(db.collection("metrics")
                  .insert_one(Value::object({{"_id", "latest"}, {"unit", unit}}))
                  .ok());
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST_F(DurableDatabaseTest, DeferredCallsWriteTheSameJournalAndSyncWaitsOnce) {
  // Calls made under a DeferredSync enqueue their frames without
  // waiting; Database::sync() is then one wait for all of them.  Only
  // the waits move: the journal bytes equal those of the same calls
  // made one by one.
  obs::LatencyHistogram& sync_waits = obs::Registry::global().histogram(
      "upin_journal_sync_wait_us", 0.0, 5000.0, 50);
  const std::string plain_path = path_ + ".plain";
  {
    auto deferred = Database::open(path_);
    auto plain = Database::open(plain_path);
    ASSERT_TRUE(deferred.ok());
    ASSERT_TRUE(plain.ok());
    for (int unit = 1; unit <= 3; ++unit) {
      const std::uint64_t waits = sync_waits.total();
      {
        const DeferredSync no_wait(*deferred.value());
        write_unit(*deferred.value(), unit);
      }
      EXPECT_EQ(sync_waits.total() - waits, 0u) << "no call waited";
      ASSERT_TRUE(deferred.value()->sync().ok());
      EXPECT_EQ(sync_waits.total() - waits, 1u) << "one wait for the unit";
      write_unit(*plain.value(), unit);
    }
  }
  EXPECT_EQ(read_bytes(path_), read_bytes(plain_path));
  std::filesystem::remove(plain_path);

  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->collection("stats").size(), 6u);
  EXPECT_EQ(reopened.value()->collection("checkpoints").size(), 3u);
  EXPECT_EQ(reopened.value()->collection("metrics").find_by_id("latest").value(),
            Value::object({{"_id", "latest"}, {"unit", 3}}));
}

TEST_F(DurableDatabaseTest, DeferredSyncCoversOnlyItsThreadAndDatabase) {
  // Other threads and other databases keep their own waits; a nested
  // deferral hands back to the one around it.
  obs::LatencyHistogram& sync_waits = obs::Registry::global().histogram(
      "upin_journal_sync_wait_us", 0.0, 5000.0, 50);
  const std::string other_path = path_ + ".other";
  {
    auto opened = Database::open(path_);
    auto other = Database::open(other_path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(other.ok());
    Database& db = *opened.value();
    Collection& mine = db.collection("c");
    Collection& theirs = other.value()->collection("c");

    const std::uint64_t waits = sync_waits.total();
    {
      const DeferredSync outer(db);
      ASSERT_TRUE(mine.insert_one(doc(R"({"_id": "x"})")).ok());
      ASSERT_TRUE(theirs.insert_one(doc(R"({"_id": "o"})")).ok());
      EXPECT_EQ(sync_waits.total() - waits, 1u) << "the other database waits";
      std::thread writer(
          [&] { EXPECT_TRUE(mine.insert_one(doc(R"({"_id": "t"})")).ok()); });
      writer.join();
      EXPECT_EQ(sync_waits.total() - waits, 2u) << "the other thread waits";
      {
        const DeferredSync inner(db);
        ASSERT_TRUE(mine.insert_one(doc(R"({"_id": "y"})")).ok());
      }
      ASSERT_TRUE(mine.insert_one(doc(R"({"_id": "z"})")).ok());
      EXPECT_EQ(sync_waits.total() - waits, 2u) << "still deferred";
    }
    ASSERT_TRUE(mine.insert_one(doc(R"({"_id": "w"})")).ok());
    EXPECT_EQ(sync_waits.total() - waits, 3u) << "waits again";
  }
  std::filesystem::remove(other_path);
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->collection("c").size(), 5u);
}

TEST_F(DurableDatabaseTest, NothingIsWrittenAfterAFailedGroupCommit) {
  // The writer stops at its first failed fsync, so the file stays a
  // prefix of the enqueued frames: a checkpoint enqueued under a
  // DeferredSync behind writes whose commit failed never reaches the
  // file, and Database::sync() reports the failure.
  FaultVfsConfig faults;
  faults.fail_sync_at = 1;
  FaultVfs fs(faults);
  DatabaseOptions options;
  options.vfs = &fs;
  {
    auto opened = Database::open(path_, options);
    ASSERT_TRUE(opened.ok());
    Database& db = *opened.value();
    const auto first = db.collection("stats").insert_one(doc(R"({"_id": "s1"})"));
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.error().code, ErrorCode::kDataLoss);
    {
      const DeferredSync no_wait(db);
      ASSERT_TRUE(
          db.collection("stats").insert_one(doc(R"({"_id": "s2"})")).ok());
      ASSERT_TRUE(
          db.collection("checkpoints").insert_one(doc(R"({"_id": "c2"})")).ok());
    }
    const util::Status synced = db.sync();
    ASSERT_FALSE(synced.ok());
    EXPECT_EQ(synced.error().code, ErrorCode::kDataLoss);
  }
  const std::string journal = read_bytes(path_);
  EXPECT_EQ(journal.find("s2"), std::string::npos);
  EXPECT_EQ(journal.find("checkpoints"), std::string::npos);
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened.value()->collection("stats").find_by_id("s2").ok());
  EXPECT_EQ(reopened.value()->find_collection("checkpoints"), nullptr);
}

TEST(Database, SyncOnInMemoryReturnsAtOnce) {
  Database db;
  ASSERT_TRUE(db.collection("c").insert_one(doc(R"({"_id": "a"})")).ok());
  EXPECT_TRUE(db.sync().ok());
}

TEST_F(DurableDatabaseTest, JournalLinesAreFramedEncodedPayloads) {
  // Each journal line is the CRC-framed payload the mutating thread
  // encoded once with the Journal::encode_* helpers.
  const Document inserted = doc(R"({"_id": "a", "v": 1})");
  {
    auto opened = Database::open(path_);
    ASSERT_TRUE(opened.ok());
    Collection& coll = opened.value()->collection("c");
    ASSERT_TRUE(coll.insert_one(inserted).ok());
    EXPECT_TRUE(coll.delete_by_id("a"));
  }
  const auto framed = [](const std::string& payload) {
    return "crc32=" + util::format("%08x", util::crc32(payload)) + " " +
           payload;
  };
  std::vector<std::string> lines;
  std::ifstream in(path_);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{
                       framed(Journal::encode_create_collection("c")),
                       framed(Journal::encode_insert("c", "a", inserted)),
                       framed(Journal::encode_delete("c", "a"))}));
  // The payloads are complete, parseable journal records.
  const auto insert_record =
      Value::parse(Journal::encode_insert("c", "a", inserted));
  ASSERT_TRUE(insert_record.ok());
  EXPECT_EQ(insert_record.value().get("op")->as_string(), "insert");
  EXPECT_EQ(insert_record.value().get("coll")->as_string(), "c");
  EXPECT_EQ(insert_record.value().get("doc")->get("v")->as_int(), 1);
}

TEST_F(DurableDatabaseTest, CompactPreservesStateAndShrinksHistory) {
  {
    auto db = Database::open(path_);
    ASSERT_TRUE(db.ok());
    Collection& coll = db.value()->collection("c");
    coll.create_index("v");
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          coll.insert_one(Value::object({{"_id", std::to_string(i)}, {"v", i}}))
              .ok());
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(coll.delete_by_id(std::to_string(i)));
    }
    ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "only", "v": 1})")).ok());
    const auto size_before = std::filesystem::file_size(path_);
    ASSERT_TRUE(db.value()->compact().ok());
    EXPECT_LT(std::filesystem::file_size(path_), size_before);
  }
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->collection("c").size(), 1u);
}

TEST_F(DurableDatabaseTest, CompactRestoresIndexesOnReplay) {
  {
    auto db = Database::open(path_);
    ASSERT_TRUE(db.ok());
    db.value()->collection("c").create_index("k");
    ASSERT_TRUE(db.value()->collection("c").insert_one(doc(R"({"_id": "a", "k": 1})")).ok());
    ASSERT_TRUE(db.value()->compact().ok());
  }
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->collection("c").indexed_fields(),
            std::vector<std::string>{"k"});
}

TEST_F(DurableDatabaseTest, MutationsAfterFailedCompactionAreRefused) {
  // A compaction whose rename fails leaves the journal closed.  Every
  // later mutation must fail with kDataLoss and leave memory unchanged,
  // instead of succeeding in memory with no journal frame behind it.
  FaultVfsConfig faults;
  faults.fail_rename_at = 1;
  FaultVfs fs(faults);
  DatabaseOptions options;
  options.vfs = &fs;
  {
    auto db = Database::open(path_, options);
    ASSERT_TRUE(db.ok());
    Collection& coll = db.value()->collection("c");
    ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "kept", "v": 1})")).ok());
    const util::Status compacted = db.value()->compact();
    ASSERT_FALSE(compacted.ok());
    EXPECT_EQ(compacted.error().code, ErrorCode::kDataLoss);

    const auto phantom = coll.insert_one(doc(R"({"_id": "phantom", "v": 2})"));
    ASSERT_FALSE(phantom.ok());
    EXPECT_EQ(phantom.error().code, ErrorCode::kDataLoss);
    std::vector<Document> batch;
    batch.push_back(doc(R"({"_id": "batch", "v": 3})"));
    const auto many = coll.insert_many(std::move(batch));
    ASSERT_FALSE(many.ok());
    EXPECT_EQ(many.error().code, ErrorCode::kDataLoss);
    EXPECT_FALSE(coll.delete_by_id("kept"));

    EXPECT_EQ(coll.size(), 1u);
    EXPECT_FALSE(coll.find_by_id("phantom").ok());
    EXPECT_EQ(coll.find_by_id("kept").value(), doc(R"({"_id": "kept", "v": 1})"));
  }
  std::filesystem::remove(path_ + ".tmp");
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  Collection& coll = reopened.value()->collection("c");
  EXPECT_EQ(coll.size(), 1u);
  EXPECT_FALSE(coll.find_by_id("phantom").ok());
  EXPECT_EQ(coll.find_by_id("kept").value(), doc(R"({"_id": "kept", "v": 1})"));
}

TEST_F(DurableDatabaseTest, DeclarationsAfterFailedCompactionAreDeclined) {
  // The same closed journal: create_index must not build an index that
  // no journal frame declares, and a collection created now has no
  // create_collection frame — both are logged.
  FaultVfsConfig faults;
  faults.fail_rename_at = 1;
  FaultVfs fs(faults);
  DatabaseOptions options;
  options.vfs = &fs;
  struct ErrorCapture {
    ErrorCapture() {
      util::Log::set_sink([this](util::LogLevel level, std::string_view text) {
        if (level == util::LogLevel::kError) messages.emplace_back(text);
      });
    }
    ~ErrorCapture() { util::Log::set_sink(nullptr); }
    std::vector<std::string> messages;
  };
  {
    ErrorCapture capture;
    std::vector<std::string>& errors = capture.messages;
    auto db = Database::open(path_, options);
    ASSERT_TRUE(db.ok());
    Collection& coll = db.value()->collection("c");
    ASSERT_TRUE(coll.insert_one(doc(R"({"_id": "kept", "v": 1})")).ok());
    ASSERT_FALSE(db.value()->compact().ok());
    errors.clear();

    coll.create_index("v");
    EXPECT_TRUE(coll.indexed_fields().empty());
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("journal closed"), std::string::npos) << errors[0];

    Collection& late = db.value()->collection("late");
    EXPECT_TRUE(late.empty());
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_NE(errors[1].find("late"), std::string::npos) << errors[1];
    EXPECT_NE(errors[1].find("create_collection"), std::string::npos)
        << errors[1];
    // Asking again finds the collection: nothing new to report.
    (void)db.value()->collection("late");
    EXPECT_EQ(errors.size(), 2u);
  }
  std::filesystem::remove(path_ + ".tmp");
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value()->collection("c").indexed_fields().empty());
  EXPECT_EQ(reopened.value()->find_collection("late"), nullptr);
}

TEST(Database, CompactOnInMemoryIsNoop) {
  Database db;
  EXPECT_TRUE(db.compact().ok());
  EXPECT_FALSE(db.is_durable());
}

TEST_F(DurableDatabaseTest, InsertsWhileCompactingLoseNothing) {
  // Satellite: compact() racing the group-commit pipeline.  Writers
  // hammer the collection while the main thread compacts repeatedly;
  // the write gate must guarantee that every insert whose call returned
  // is in the post-compact journal (no loss, no duplication).
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 120;
  {
    auto opened = Database::open(path_);
    ASSERT_TRUE(opened.ok());
    Database& db = *opened.value();
    Collection& coll = db.collection("c");
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&coll, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          const std::string id = util::format("w%d_%d", w, i);
          EXPECT_TRUE(
              coll.insert_one(Value::object({{"_id", id}, {"n", i}})).ok());
        }
      });
    }
    std::thread compactor([&db, &done] {
      while (!done.load()) {
        EXPECT_TRUE(db.compact().ok());
      }
    });
    for (auto& t : writers) t.join();
    done.store(true);
    compactor.join();
    ASSERT_TRUE(db.compact().ok());
  }
  auto reopened = Database::open(path_);
  ASSERT_TRUE(reopened.ok());
  Collection& replayed = reopened.value()->collection("c");
  ASSERT_EQ(replayed.size(),
            static_cast<std::size_t>(kWriters * kPerWriter));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      EXPECT_TRUE(replayed
                      .find_by_id(util::format("w%d_%d", w, i))
                      .ok());
    }
  }
}

// --------------------------------------------------------- salvage mode

class SalvageDatabaseTest : public DurableDatabaseTest {
 protected:
  void SetUp() override {
    DurableDatabaseTest::SetUp();
    quarantine_ = path_ + ".quarantine";
    std::filesystem::remove(quarantine_);
  }
  void TearDown() override {
    std::filesystem::remove(quarantine_);
    DurableDatabaseTest::TearDown();
  }

  /// Build a journal with three documents, then flip one payload byte of
  /// the middle insert (newline kept: mid-file corruption, not a torn
  /// tail).
  void corrupt_middle_record() {
    {
      auto db = Database::open(path_);
      ASSERT_TRUE(db.ok());
      for (const char* id : {"a", "b", "c"}) {
        ASSERT_TRUE(db.value()
                        ->collection("paths")
                        .insert_one(Value::object({{"_id", id}, {"v", 1}}))
                        .ok());
      }
    }
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

TEST_F(SalvageDatabaseTest, StrictOpenFailsOnMidfileCorruption) {
  corrupt_middle_record();
  const auto failed = Database::open(path_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::kParseError);
  EXPECT_FALSE(std::filesystem::exists(quarantine_))
      << "strict mode must not write sidecars";
}

TEST_F(SalvageDatabaseTest, SalvageOpenQuarantinesAndScrubs) {
  corrupt_middle_record();
  DatabaseOptions options;
  options.salvage_mode = true;
  {
    auto salvaged = Database::open(path_, options);
    ASSERT_TRUE(salvaged.ok());
    Collection& coll = salvaged.value()->collection("paths");
    EXPECT_EQ(coll.size(), 2u);
    EXPECT_TRUE(coll.find_by_id("a").ok());
    EXPECT_FALSE(coll.find_by_id("b").ok()) << "the corrupt record is gone";
    EXPECT_TRUE(coll.find_by_id("c").ok());
  }
  // The sidecar names the dropped record.
  ASSERT_TRUE(std::filesystem::exists(quarantine_));
  std::string sidecar;
  {
    std::ifstream in(quarantine_);
    sidecar.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  EXPECT_NE(sidecar.find("checksum mismatch"), std::string::npos);
  EXPECT_NE(sidecar.find("crc32="), std::string::npos);

  // Salvage compacted the journal on open, so a later *strict* open
  // succeeds: the corruption was quarantined, not left in place.
  auto strict = Database::open(path_);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict.value()->collection("paths").size(), 2u);
}

TEST_F(SalvageDatabaseTest, SalvageOpenFailsWhenSidecarCannotBeWritten) {
  // A record may only leave the journal once its quarantine copy is
  // durable.  With the sidecar path taken by a directory the copy cannot
  // be written, so the open fails and the journal stays as it was.
  const auto read_journal = [&] {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  corrupt_middle_record();
  const std::string before = read_journal();
  ASSERT_TRUE(std::filesystem::create_directory(quarantine_));
  DatabaseOptions options;
  options.salvage_mode = true;
  const auto failed = Database::open(path_, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::kDataLoss);
  EXPECT_EQ(read_journal(), before)
      << "no record may be dropped without a copy";
}

TEST_F(SalvageDatabaseTest, SalvageOpenOnCleanJournalWritesNoSidecar) {
  {
    auto db = Database::open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(
        db.value()->collection("c").insert_one(doc(R"({"_id": "a"})")).ok());
  }
  DatabaseOptions options;
  options.salvage_mode = true;
  auto reopened = Database::open(path_, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->collection("c").size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(quarantine_));
}

TEST(WriteGuard, RejectsWithoutCredentialWhenGuarded) {
  Database db;
  db.set_write_guard([](const Value& credential) {
    const Value* token = credential.get("token");
    return token != nullptr && token->is_string() &&
           token->as_string() == "secret";
  });
  EXPECT_TRUE(db.has_write_guard());

  const auto denied = db.guarded_insert("c", doc(R"({"_id": "a"})"), Value());
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(db.collection("c").size(), 0u);

  const auto allowed = db.guarded_insert(
      "c", doc(R"({"_id": "a"})"), Value::object({{"token", "secret"}}));
  EXPECT_TRUE(allowed.ok());
  EXPECT_EQ(db.collection("c").size(), 1u);
}

TEST(WriteGuard, GuardedInsertManyChecksOnce) {
  Database db;
  int guard_calls = 0;
  db.set_write_guard([&](const Value&) {
    ++guard_calls;
    return true;
  });
  std::vector<Document> batch;
  batch.push_back(doc(R"({"_id": "a"})"));
  batch.push_back(doc(R"({"_id": "b"})"));
  ASSERT_TRUE(db.guarded_insert_many("c", std::move(batch), Value()).ok());
  EXPECT_EQ(guard_calls, 1);
  EXPECT_EQ(db.collection("c").size(), 2u);
}

TEST(WriteGuard, PassingGuardStillEnforcesIdConflicts) {
  Database db;
  db.set_write_guard([](const Value&) { return true; });
  ASSERT_TRUE(db.guarded_insert("c", doc(R"({"_id": "a"})"), Value()).ok());
  const auto conflict =
      db.guarded_insert_many("c", {doc(R"({"_id": "a"})")}, Value());
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.error().code, ErrorCode::kConflict);
  EXPECT_EQ(db.collection("c").size(), 1u);
}

TEST(WriteGuard, UnguardedDatabaseAcceptsAnything) {
  Database db;
  EXPECT_FALSE(db.has_write_guard());
  EXPECT_TRUE(db.guarded_insert("c", doc(R"({"_id": "a"})"), Value()).ok());
}

}  // namespace
}  // namespace upin::docdb
