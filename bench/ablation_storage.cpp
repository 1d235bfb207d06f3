// ablation_storage — the §4.2.2 batching trade-off, measured.
//
// The paper prefers "multiple insertions of path statistics to single
// ones" to cut I/O overhead, accepting that a crash loses at most one
// destination's batch.  This google-benchmark harness quantifies the
// other side of that trade-off on the journaled (durable) store:
// per-document insert_one vs one insert_many batch, at the batch sizes a
// destination actually produces.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "docdb/database.hpp"
#include "measure/schema.hpp"
#include "obs/metrics.hpp"
#include "scion/scionlab.hpp"
#include "util/strings.hpp"

namespace {

using namespace upin;

docdb::Document make_stats_doc(int i, const std::string& path_id = "") {
  measure::StatsSample sample;
  sample.path_id = path_id.empty() ? "2_" + std::to_string(i % 24) : path_id;
  sample.server_id = 2;
  sample.timestamp = util::SimTime(static_cast<std::int64_t>(i) * 1'000'000'000);
  sample.hop_count = 6;
  sample.isds = {16, 17};
  sample.latency_ms = 41.5;
  sample.loss_pct = 0.0;
  sample.jitter_ms = 0.4;
  sample.bw_up_64 = 4.1;
  sample.bw_down_64 = 11.2;
  sample.bw_up_mtu = 9.0;
  sample.bw_down_mtu = 11.7;
  sample.target_mbps = 12.0;
  return measure::stats_document(sample);
}

std::string temp_journal(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("upin_ablation_") + tag + ".jsonl"))
      .string();
}

std::uint64_t journal_counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Start-of-benchmark journal counter readings; attach_to() turns the
/// deltas into per-benchmark counters (mean group size, stalls) in the
/// report table.  Values are cumulative process-wide, hence the deltas.
struct JournalWindow {
  std::uint64_t groups = journal_counter("upin_journal_groups_committed_total");
  std::uint64_t events = journal_counter("upin_journal_events_enqueued_total");
  std::uint64_t stalls =
      journal_counter("upin_journal_backpressure_stalls_total");

  void attach_to(benchmark::State& state) const {
    const double groups_delta = static_cast<double>(
        journal_counter("upin_journal_groups_committed_total") - groups);
    const double events_delta = static_cast<double>(
        journal_counter("upin_journal_events_enqueued_total") - events);
    state.counters["mean_group_size"] =
        groups_delta > 0.0 ? events_delta / groups_delta : 0.0;
    state.counters["backpressure_stalls"] = static_cast<double>(
        journal_counter("upin_journal_backpressure_stalls_total") - stalls);
  }
};

void BM_InsertOneByOne(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  const std::string path = temp_journal("one");
  const JournalWindow window;
  int counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(path);
    auto db = docdb::Database::open(path);
    state.ResumeTiming();
    docdb::Collection& coll = db.value()->collection(measure::kPathsStats);
    for (int i = 0; i < batch; ++i) {
      auto doc = make_stats_doc(counter++);
      benchmark::DoNotOptimize(coll.insert_one(std::move(doc)));
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
  window.attach_to(state);
  std::filesystem::remove(path);
}

void BM_InsertBatched(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  const std::string path = temp_journal("many");
  const JournalWindow window;
  int counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(path);
    auto db = docdb::Database::open(path);
    std::vector<docdb::Document> docs;
    docs.reserve(static_cast<std::size_t>(batch));
    for (int i = 0; i < batch; ++i) docs.push_back(make_stats_doc(counter++));
    state.ResumeTiming();
    docdb::Collection& coll = db.value()->collection(measure::kPathsStats);
    benchmark::DoNotOptimize(coll.insert_many(std::move(docs)));
  }
  state.SetItemsProcessed(state.iterations() * batch);
  window.attach_to(state);
  std::filesystem::remove(path);
}

// The group-commit pipeline case: four survey threads batching their own
// destination's statistics into the same journaled collection.  Encoding
// happens off the collection lock and the writer thread coalesces
// concurrent batches into group commits, so aggregate docs/sec should
// scale past the single-writer batched case instead of serializing on
// durability.  Each benchmark thread plays one survey worker; ids are
// unique per (thread, iteration) so the shared database keeps accepting.
void BM_InsertBatchedParallel(benchmark::State& state) {
  static std::unique_ptr<docdb::Database> shared_db;
  static JournalWindow shared_window;
  const auto batch = static_cast<int>(state.range(0));
  const std::string path = temp_journal("par");
  if (state.thread_index() == 0) {
    std::filesystem::remove(path);
    shared_db = std::move(docdb::Database::open(path).value());
    shared_window = JournalWindow{};
  }
  // The state loop entry is a barrier across threads, so thread 0's
  // setup above is visible to everyone before the first iteration.
  int iter = 0;
  for (auto _ : state) {
    // stats_document derives _id from (path_id, timestamp); a per-thread
    // path_id that changes every iteration keeps every _id unique.
    const std::string path_id =
        util::format("p%d_%d", state.thread_index(), iter++);
    std::vector<docdb::Document> docs;
    docs.reserve(static_cast<std::size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      docs.push_back(make_stats_doc(i, path_id));
    }
    benchmark::DoNotOptimize(
        shared_db->collection(measure::kPathsStats).insert_many(std::move(docs)));
  }
  state.SetItemsProcessed(state.iterations() * batch);
  if (state.thread_index() == 0) {
    shared_db.reset();
    shared_window.attach_to(state);
    std::filesystem::remove(path);
  }
}

// Compact-under-load: the write gate lets compact() run against live
// writers instead of requiring a quiesced database.  This measures what
// a mid-campaign journal rewrite costs the writers (and itself): each
// iteration is one compact() while four survey threads keep batching.
// The upin_compact_* counters land in the report via state.counters.
void BM_CompactUnderLoad(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  const std::string path = temp_journal("compact");
  std::filesystem::remove(path);
  auto db = std::move(docdb::Database::open(path).value());
  docdb::Collection& coll = db->collection(measure::kPathsStats);
  const std::uint64_t runs_before = journal_counter("upin_compact_runs_total");
  const std::uint64_t records_before =
      journal_counter("upin_compact_records_total");

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&coll, &done, batch, w] {
      int iter = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const std::string path_id = util::format("c%d_%d", w, iter++);
        std::vector<docdb::Document> docs;
        docs.reserve(static_cast<std::size_t>(batch));
        for (int i = 0; i < batch; ++i) {
          docs.push_back(make_stats_doc(i, path_id));
        }
        benchmark::DoNotOptimize(coll.insert_many(std::move(docs)));
      }
    });
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->compact());
  }
  done.store(true);
  for (auto& t : writers) t.join();

  state.counters["compact_runs"] = static_cast<double>(
      journal_counter("upin_compact_runs_total") - runs_before);
  state.counters["compact_failures"] = static_cast<double>(
      journal_counter("upin_compact_failures_total"));
  state.counters["records_per_compact"] =
      state.iterations() > 0
          ? static_cast<double>(
                journal_counter("upin_compact_records_total") -
                records_before) /
                static_cast<double>(state.iterations())
          : 0.0;
  db.reset();
  std::filesystem::remove(path);
}

BENCHMARK(BM_InsertOneByOne)->Arg(8)->Arg(24)->Arg(96);
BENCHMARK(BM_InsertBatched)->Arg(8)->Arg(24)->Arg(96);
BENCHMARK(BM_InsertBatchedParallel)
    ->Arg(8)
    ->Arg(24)
    ->Arg(96)
    ->Threads(4)
    ->UseRealTime();
BENCHMARK(BM_CompactUnderLoad)->Arg(24)->UseRealTime();

}  // namespace

// BENCHMARK_MAIN plus a closing metrics table: the cumulative journal
// pipeline picture (flush-latency percentiles, mean group size,
// backpressure stalls) across every benchmark that just ran.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::fprintf(stderr, "\n%s",
               obs::pipeline_summary(obs::Registry::global()).c_str());
  return 0;
}
