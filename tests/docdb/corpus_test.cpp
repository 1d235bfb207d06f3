// Replays the checked-in corrupt-journal corpus (tests/docdb/corpus/)
// and pins each file to its expected ReplayReport outcome.  The corpus
// is the regression net for the recovery contract: if replay semantics
// drift, these fixtures — not a freshly generated file — catch it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "docdb/database.hpp"
#include "docdb/journal.hpp"
#include "support/temp_path.hpp"

#ifndef UPIN_CORPUS_DIR
#error "UPIN_CORPUS_DIR must point at the checked-in corpus"
#endif

namespace upin::docdb {
namespace {

class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_dir_ = test_support::temp_path("corpus_test");
    std::filesystem::create_directories(work_dir_);
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(work_dir_, ignored);
  }

  /// Copy a corpus file into the scratch dir (the checked-in corpus is
  /// read-only; salvage writes sidecars next to the journal).
  std::string stage(const std::string& name) {
    const std::string src = std::string(UPIN_CORPUS_DIR) + "/" + name;
    const std::string dst = work_dir_ + "/" + name;
    std::filesystem::copy_file(
        src, dst, std::filesystem::copy_options::overwrite_existing);
    return dst;
  }

  static util::Status replay_ids(const std::string& path,
                                 std::vector<std::string>* ids,
                                 ReplayReport* report,
                                 const ReplayOptions& options = {}) {
    return Journal::replay(
        path,
        [&](const JournalRecord& record) {
          ids->push_back(record.id);
          return util::Status::success();
        },
        report, options);
  }

  std::string work_dir_;
};

TEST_F(CorpusTest, TornTailRecoversIntactPrefix) {
  const std::string path = stage("torn_tail.jsonl");
  std::vector<std::string> ids;
  ReplayReport report;
  ASSERT_TRUE(replay_ids(path, &ids, &report).ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.torn_tail_line, 3u);
  EXPECT_EQ(report.records_applied, 2u);
  // The valid prefix ends exactly after the last intact newline.
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(report.valid_prefix_bytes, content.rfind('\n') + 1);
}

TEST_F(CorpusTest, MidfileBitflipIsHardErrorWhenStrict) {
  const std::string path = stage("midfile_bitflip.jsonl");
  std::vector<std::string> ids;
  ReplayReport report;
  const auto status = replay_ids(path, &ids, &report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kParseError);
  EXPECT_NE(status.error().message.find("checksum mismatch"),
            std::string::npos);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(ids, std::vector<std::string>{"a"})
      << "records before the corruption replay, then the error stops it";
}

TEST_F(CorpusTest, MidfileBitflipSalvagesAroundTheCorruption) {
  const std::string path = stage("midfile_bitflip.jsonl");
  ReplayOptions options;
  options.salvage = true;
  options.quarantine_path = path + ".quarantine";
  std::vector<std::string> ids;
  ReplayReport report;
  ASSERT_TRUE(replay_ids(path, &ids, &report, options).ok());
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(report.records_applied, 2u);
  EXPECT_EQ(report.quarantined_records, 1u);
  EXPECT_EQ(report.first_quarantined_line, 2u);
  std::ifstream sidecar(options.quarantine_path);
  std::string header;
  ASSERT_TRUE(std::getline(sidecar, header));
  EXPECT_NE(header.find("line 2"), std::string::npos);
}

TEST_F(CorpusTest, TruncatedCrcPrefixIsATornTail) {
  const std::string path = stage("truncated_crc_prefix.jsonl");
  std::vector<std::string> ids;
  ReplayReport report;
  ASSERT_TRUE(replay_ids(path, &ids, &report).ok())
      << "a header cut mid-checksum is a crash signature, not corruption";
  EXPECT_EQ(ids, std::vector<std::string>{"a"});
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.torn_tail_line, 2u);
}

TEST_F(CorpusTest, EmptyJournalReplaysNothing) {
  const std::string path = stage("empty.jsonl");
  std::vector<std::string> ids;
  ReplayReport report;
  ASSERT_TRUE(replay_ids(path, &ids, &report).ok());
  EXPECT_TRUE(ids.empty());
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.records_applied, 0u);
}

TEST_F(CorpusTest, UpdateFrameReplaysToThePostImage) {
  // Recorded on a durable database by a build whose Collection still
  // had an update operation: create_collection, inserts of "a" and "b",
  // an update of "a" ($set v and tag, $inc n) and a delete of "b".
  // Nothing writes update frames now; replay must still apply the
  // post-image.
  const std::string path = stage("update_frame.jsonl");
  auto db = Database::open(path);
  ASSERT_TRUE(db.ok()) << db.error().message;
  EXPECT_EQ(db.value()->collection_names(),
            std::vector<std::string>{"paths"});
  std::vector<Document> docs;
  db.value()->collection("paths").for_each(
      [&docs](const Document& doc) { docs.push_back(doc); });
  const Document post_image =
      util::Value::parse(R"({"_id": "a", "v": 42, "tag": "new", "n": 1})")
          .value();
  EXPECT_EQ(docs, std::vector<Document>{post_image});
}

}  // namespace
}  // namespace upin::docdb
