// Crash-matrix property test: run a scripted mutation workload on a
// FaultVfs, crash at EVERY operation boundary, reopen, and assert the
// recovered database is a prefix-consistent cut of the workload's
// journal-record sequence:
//
//   * no committed-and-synced call is lost (cut >= committed marker),
//   * no phantom or reordered records (state == some model prefix),
//   * Database::open always succeeds on a crash image (a kernel leaves
//     torn tails, never mid-file corruption).
//
// The workload writes every frame kind the program writes
// (create_collection, create_index, insert, delete) plus a compact() —
// so the matrix sweeps the temp-write / fsync / rename / dir-sync window where
// an unflushed rename must roll back to the old journal.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "docdb/database.hpp"
#include "docdb/vfs.hpp"
#include "support/temp_path.hpp"

namespace upin::docdb {
namespace {

using util::Value;

/// One journal record the workload expects to exist, in enqueue order.
struct ModelRecord {
  std::string op;
  std::string coll;
  std::string id;
  std::string doc_dump;  ///< document dump (insert)
  std::string field;     ///< index declaration (create_index)
};

/// The workload's account of itself: the full record sequence and how
/// much of it is *guaranteed* durable (every record at or before the
/// marker was covered by a successfully-returned durability sync).
struct WorkloadTrace {
  std::vector<ModelRecord> model;
  std::size_t committed = 0;
};

/// One collection's recoverable state: id -> document dump, and the
/// index declarations in creation order.
struct ModelCollection {
  std::map<std::string, std::string> docs;
  std::vector<std::string> indexes;
  bool operator==(const ModelCollection&) const = default;
};

/// collection -> its state.  Collections created but empty still appear
/// (create_collection replays as an empty collection).
using ModelState = std::map<std::string, ModelCollection>;

ModelState apply_prefix(const std::vector<ModelRecord>& model, std::size_t k) {
  ModelState state;
  for (std::size_t i = 0; i < k; ++i) {
    const ModelRecord& record = model[i];
    if (record.op == "create_collection") {
      state[record.coll];
    } else if (record.op == "create_index") {
      state[record.coll].indexes.push_back(record.field);
    } else if (record.op == "insert") {
      state[record.coll].docs[record.id] = record.doc_dump;
    } else if (record.op == "delete") {
      state[record.coll].docs.erase(record.id);
    }
  }
  return state;
}

/// Scripted single-threaded workload.  Mirrors the exact journal-record
/// enqueue order into the trace and stops at the first failed call (the
/// crash).  Calls whose API propagates sync failures advance the
/// committed marker; create_index (void) and delete_by_id (bool) do not —
/// their records become guaranteed only once a later sync covers them.
void run_workload(Database& db, WorkloadTrace* trace) {
  auto insert = [&](const std::string& coll, const std::string& id,
                    int v, bool first_use_of_coll) {
    if (first_use_of_coll) {
      trace->model.push_back({"create_collection", coll, {}, {}});
    }
    const Document doc = Value::object({{"_id", id}, {"v", v}});
    trace->model.push_back({"insert", coll, id, doc.dump()});
    return db.collection(coll).insert_one(doc).ok();
  };

  if (!insert("paths", "p1", 1, /*first_use_of_coll=*/true)) return;
  trace->committed = trace->model.size();

  {
    std::vector<Document> batch;
    for (const auto& [id, v] : {std::pair{"p2", 2}, std::pair{"p3", 3}}) {
      const Document doc = Value::object({{"_id", id}, {"v", v}});
      trace->model.push_back({"insert", "paths", id, doc.dump()});
      batch.push_back(doc);
    }
    if (!db.collection("paths").insert_many(std::move(batch)).ok()) return;
    trace->committed = trace->model.size();
  }

  if (!insert("stats", "s1", 10, /*first_use_of_coll=*/true)) return;
  trace->committed = trace->model.size();

  trace->model.push_back({"create_index", "paths", {}, {}, "v"});
  db.collection("paths").create_index("v");
  // No committed advance: create_index cannot report a sync failure.

  trace->model.push_back({"delete", "paths", "p1", {}});
  if (!db.collection("paths").delete_by_id("p1")) return;
  // No committed advance: delete_by_id's bool cannot report sync failure.

  if (!db.compact().ok()) return;
  // A successful compact leaves the journal equal to the live snapshot:
  // everything so far (the delete included) is durable.
  trace->committed = trace->model.size();

  if (!insert("paths", "p4", 4, /*first_use_of_coll=*/false)) return;
  trace->committed = trace->model.size();

  {
    std::vector<Document> batch;
    for (const auto& [id, v] : {std::pair{"s2", 20}, std::pair{"s3", 30}}) {
      const Document doc = Value::object({{"_id", id}, {"v", v}});
      trace->model.push_back({"insert", "stats", id, doc.dump()});
      batch.push_back(doc);
    }
    if (!db.collection("stats").insert_many(std::move(batch)).ok()) return;
    trace->committed = trace->model.size();
  }
}

ModelState capture(Database& db) {
  ModelState state;
  for (const std::string& name : db.collection_names()) {
    ModelCollection& coll = state[name];
    const Collection& live = *db.find_collection(name);
    live.for_each([&](const Document& doc) {
      coll.docs[std::string(document_id(doc).value_or(""))] = doc.dump();
    });
    coll.indexes = live.indexed_fields();
  }
  return state;
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_support::temp_path("crash_matrix");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  std::string dir_;
};

TEST_F(CrashMatrixTest, EveryCrashPointRecoversAPrefixConsistentState) {
  // Probe run (fault-free FaultVfs) sizes the matrix.  The writer
  // thread's grouping makes the exact op count vary slightly between
  // runs, so sweep a few points past the probe: extra points are clean
  // runs and must recover the full final state.
  std::size_t probe_ops = 0;
  {
    FaultVfs probe_vfs;
    DatabaseOptions options;
    options.vfs = &probe_vfs;
    const std::string path = dir_ + "/probe.jsonl";
    WorkloadTrace trace;
    {
      auto opened = Database::open(path, options);
      ASSERT_TRUE(opened.ok());
      run_workload(*opened.value(), &trace);
    }
    ASSERT_FALSE(probe_vfs.crashed());
    ASSERT_EQ(trace.committed, trace.model.size())
        << "the fault-free workload must complete";
    probe_ops = probe_vfs.op_count();
    ASSERT_GT(probe_ops, 10u);
  }

  std::size_t crashed_runs = 0;
  for (std::size_t crash_at = 1; crash_at <= probe_ops + 4; ++crash_at) {
    SCOPED_TRACE("crash_at_op=" + std::to_string(crash_at));
    const std::string path =
        dir_ + "/crash_" + std::to_string(crash_at) + ".jsonl";

    FaultVfs vfs(FaultVfsConfig{.crash_at_op = crash_at});
    DatabaseOptions options;
    options.vfs = &vfs;
    WorkloadTrace trace;
    {
      auto opened = Database::open(path, options);
      // crash_at == 1 kills the journal's own open; the model is empty
      // and recovery must find an empty database.
      if (opened.ok()) run_workload(*opened.value(), &trace);
    }
    if (vfs.crashed()) ++crashed_runs;

    // Reopen the frozen files with the real filesystem, strict mode: a
    // crash image must never read as mid-file corruption.
    auto reopened = Database::open(path);
    ASSERT_TRUE(reopened.ok())
        << "recovery failed: " << reopened.error().message;
    const ModelState recovered = capture(*reopened.value());

    bool matched = false;
    for (std::size_t k = trace.committed; k <= trace.model.size(); ++k) {
      if (apply_prefix(trace.model, k) == recovered) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched)
        << "recovered state is not a prefix-consistent cut: committed="
        << trace.committed << " total=" << trace.model.size()
        << " recovered_collections=" << recovered.size();
  }
  EXPECT_GT(crashed_runs, 10u) << "the matrix must actually exercise crashes";
}

TEST_F(CrashMatrixTest, CleanRunThroughFaultVfsMatchesFullModel) {
  // Baseline: the model itself is faithful — a run with no faults at
  // all recovers to exactly the final model state.
  FaultVfs vfs;
  DatabaseOptions options;
  options.vfs = &vfs;
  const std::string path = dir_ + "/clean.jsonl";
  WorkloadTrace trace;
  {
    auto opened = Database::open(path, options);
    ASSERT_TRUE(opened.ok());
    run_workload(*opened.value(), &trace);
  }
  auto reopened = Database::open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(capture(*reopened.value()),
            apply_prefix(trace.model, trace.model.size()));
}

}  // namespace
}  // namespace upin::docdb
