// harness.hpp — shared machinery of the end-to-end benchmark.
//
// The benchmark measures the system from outside: it times calls into
// public APIs and never reaches into the libraries.  This header holds
// what every workload needs for that: wall-clock spans with self time
// (the traced replay), a counting VFS under the journal, the paths_stats
// digest the correctness checks compare, and the per-run report the
// workloads fill in.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "docdb/database.hpp"
#include "docdb/vfs.hpp"
#include "measure/testsuite.hpp"

namespace upin::e2e {

/// Command-line settings a workload runs under.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;  ///< length of the measured phase
  bool trace = false;     ///< traced replay + per-layer metrics
  bool smoke = false;     ///< tiny inputs: exercises every check quickly
  std::string data_dir;   ///< journals and shards (private to this run)
  std::string trace_dir;  ///< where trace_<workload>.json is written
};

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since `start_ns`.
[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Input seed `index` of a run: a splitmix stream off the run's seed, so
/// every campaign, request stream and fleet round is a function of
/// `--seed` alone.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t index);

/// CPU time used so far by the calling thread, in nanoseconds.
[[nodiscard]] std::int64_t thread_cpu_ns();
/// CPU time used so far by all threads of the process, in nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns();

/// One timed operation: when it started, how long it took, how many
/// paths_stats documents it committed (campaigns) or aggregated
/// (selections), and the share of its threads' wall time they spent on
/// a CPU (the rest they waited: for an fsync, a lock, or a vCPU the host
/// took away).
struct Op {
  std::int64_t start_ns = 0;
  double ms = 0.0;
  double docs = 0.0;
  double cpu_share = 1.0;
};

/// Host speed probes (README: "Host speed").  Two fixed kernels that use
/// no code of the system, timed between the timed operations:
///  - the CPU kernel, every 50 ms: index lookups, document copies and
///    field reads on a small document store of its own, then a round of
///    standard-library chores (number formatting, hashed and ordered
///    string maps, a regex, a stable sort, calls through std::function);
///  - the I/O kernel, every 100 ms once enable_io() named a directory: a
///    512-byte append and fsync on a file of its own.
/// Their times track how fast the shared host runs and how fast its disk
/// syncs at that moment; main() scales the on-CPU part of each operation
/// by the first and the waiting part by the second.
class SpeedProbe {
 public:
  /// The kernels' times on a quiet host of the kind the baseline was
  /// taken on; scaled times read as if every sample had taken this long.
  static constexpr double kNominalCpuMs = 0.3;
  static constexpr double kNominalIoMs = 0.12;

  enum class Kernel { kCpu, kIo };

  /// Multipliers for wall time taken at one time: the nominal kernel time
  /// over the kernel's median sample then (1 without samples).
  struct Scales {
    double cpu = 1.0;
    double io = 1.0;
    /// For a wall time of which a share `cpu_share` was spent on a CPU.
    [[nodiscard]] double of(double cpu_share) const {
      return cpu_share * cpu + (1.0 - cpu_share) * io;
    }
  };

  /// Builds the CPU kernel's store (once per process), so that no timed
  /// region pays for it.
  SpeedProbe();
  /// Also run the I/O kernel, on a file in `dir` (on the disk the
  /// workload's journals use).
  void enable_io(const std::string& dir);
  /// Sample each kernel whose interval has passed since its last sample.
  void tick();
  /// Sample every kernel now.
  void sample();
  /// Median time, in ms, of the kernel's samples taken in [from_ns,
  /// to_ns), widened half a second a side at a time until it holds three
  /// samples (or all of them); 0 when there are none.
  [[nodiscard]] double median_ms(Kernel kernel, std::int64_t from_ns,
                                 std::int64_t to_ns) const;
  [[nodiscard]] Scales scales(std::int64_t from_ns, std::int64_t to_ns) const;

 private:
  struct Sample {
    std::int64_t at_ns;
    double ms;
  };
  void sample_cpu();
  void sample_io();

  std::vector<Sample> cpu_samples_;
  std::vector<Sample> io_samples_;
  std::string io_path_;  ///< empty: no I/O kernel
  std::int64_t last_cpu_ns_ = 0;
  std::int64_t last_io_ns_ = 0;
};

/// What one workload run measured.  End-to-end inputs are raw samples;
/// main() turns them into the named metrics.
struct Report {
  std::vector<std::string> failures;  ///< failed output checks
  std::size_t attempted = 0;          ///< timed operations started
  std::size_t failed = 0;             ///< timed operations that errored
  std::vector<Op> setups;             ///< every timed set-up
  std::vector<Op> ops;                ///< every timed operation, in order
  SpeedProbe probe;                   ///< host speed during the run
  std::map<std::string, double> layer;  ///< per-layer metrics (--trace)
  std::vector<std::string> notes;     ///< extra human-readable lines

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  /// An operation of `threads` threads that used `cpu_ns` of CPU time
  /// between `start_ns` and `end_ns`.
  void op(std::int64_t start_ns, std::int64_t end_ns, std::int64_t cpu_ns,
          double docs, int threads = 1) {
    ops.push_back(make_op(start_ns, end_ns, cpu_ns, docs, threads));
  }
  /// A set-up, run on the calling thread.
  void setup(std::int64_t start_ns, std::int64_t end_ns,
             std::int64_t cpu_ns) {
    setups.push_back(make_op(start_ns, end_ns, cpu_ns, 0.0, 1));
  }
  [[nodiscard]] static Op make_op(std::int64_t start_ns, std::int64_t end_ns,
                                  std::int64_t cpu_ns, double docs,
                                  int threads);
  /// Documents per second of operation time, over the whole run.
  [[nodiscard]] double docs_per_s() const {
    double docs = 0.0;
    double ms = 0.0;
    for (const Op& o : ops) {
      docs += o.docs;
      ms += o.ms;
    }
    return ms > 0.0 ? docs / (ms * 1e-3) : 0.0;
  }
};

/// In-memory span recorder.  A span is opened and closed by `Span`'s
/// scope; spans nest on one thread.  Self time is a span's duration minus
/// the time its child spans cover, accumulated per span name.  The first
/// kStoredSpans spans are also stored for the trace file.
class Tracer {
 public:
  struct Totals {
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
  };

  static constexpr std::size_t kStoredSpans = 200000;

  class Span {
   public:
    /// `name` must be a string literal (stored by pointer).
    Span(Tracer& tracer, const char* name, std::uint64_t id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
  };

  [[nodiscard]] Totals totals(std::string_view name) const;
  /// Self time of `name` spans in microseconds, per one of `ops`.
  [[nodiscard]] double self_us(std::string_view name, double ops) const;
  /// Write the stored spans as JSON: [{name, start_ns, end_ns, parent, id}].
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct Frame {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t record;  ///< index into records_, or -1 when not stored
  };
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::uint64_t id;
  };

  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::map<std::string_view, Totals> totals_;
};

/// A `docdb::Vfs` over `Vfs::real()` that counts and times what the
/// journal writer does: appends, syncs, bytes.
class CountingVfs final : public docdb::Vfs {
 public:
  struct Counts {
    std::uint64_t appends = 0;
    std::uint64_t syncs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t append_ns = 0;
    std::uint64_t sync_ns = 0;
  };

  [[nodiscard]] Counts counts() const noexcept;

  [[nodiscard]] util::Result<std::unique_ptr<docdb::File>> open_append(
      const std::string& path) override;
  [[nodiscard]] util::Result<std::unique_ptr<docdb::File>> open_trunc(
      const std::string& path) override;
  [[nodiscard]] util::Status rename(const std::string& from,
                                    const std::string& to) override;
  [[nodiscard]] util::Status sync_parent_dir(const std::string& path) override;
  [[nodiscard]] util::Status truncate(const std::string& path,
                                      std::uint64_t size) override;
  [[nodiscard]] util::Status remove(const std::string& path) override;

 private:
  friend class CountingFile;
  [[nodiscard]] util::Result<std::unique_ptr<docdb::File>> wrap(
      util::Result<std::unique_ptr<docdb::File>> opened);

  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> syncs_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> append_ns_{0};
  std::atomic<std::uint64_t> sync_ns_{0};
};

/// SHA-256 over the paths_stats documents (sorted dumps) plus their
/// encoded size — the value every durability and replay check compares.
struct StatsDigest {
  std::string hex;
  std::size_t docs = 0;
  std::size_t bytes = 0;
  bool operator==(const StatsDigest& other) const {
    return hex == other.hex && docs == other.docs;
  }
};
[[nodiscard]] StatsDigest stats_digest(const docdb::Database& db);

/// Largest difference in paths_stats sample counts between two paths of
/// one destination (0 = balanced batches, paper §4.2.2).
[[nodiscard]] std::size_t sample_count_spread(const docdb::Database& db);

/// Post-retry failures and attempts of a campaign, over pings, bandwidth
/// probes and batch inserts (README: failed_share).
struct OpTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const measure::TestSuiteProgress& progress);
  [[nodiscard]] double share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Counter readings the per-layer metrics are deltas of: the counting
/// VFS plus the journal, query-planner and path-cache series of the
/// global metrics registry.
struct Counters {
  enum Field {
    kVfsAppends,
    kVfsSyncs,
    kVfsBytes,
    kVfsAppendNs,
    kVfsSyncNs,
    kJournalGroups,       ///< group commits observed
    kJournalGroupEvents,  ///< events over those groups
    kJournalStalls,       ///< writer-queue backpressure stalls
    kPlanScan,
    kPlanIndexPoint,
    kPlanIndexRange,
    kCacheHits,
    kCacheMisses,
    kFieldCount,
  };
  std::array<double, kFieldCount> value{};

  /// `vfs` null: the VFS fields read 0.
  [[nodiscard]] static Counters read(const CountingVfs* vfs);
  [[nodiscard]] double operator[](Field field) const { return value[field]; }
  Counters& operator+=(const Counters& other);
  [[nodiscard]] Counters operator-(const Counters& other) const;
};

/// Fill the counter-derived per-layer metrics (docdb.vfs.*, journal,
/// plans, path cache) from a delta over `ops` timed operations that
/// stored `docs` paths_stats documents of `user_bytes` encoded bytes.
void add_counter_layers(Report& report, const Counters& delta, double ops,
                        double docs, double user_bytes);

/// trace.coverage (the share of the `root` spans' wall their children
/// cover) and trace.overhead_pct (untraced against traced throughput).
/// Returns the coverage.
double add_trace_layers(Report& report, const Tracer& tracer, const char* root,
                      double untraced_per_s, double traced_per_s);

/// Write trace_<workload>.json into the trace directory.
void write_trace(Report& report, const Tracer& tracer, const Options& options);

/// Peak resident set of this process (VmHWM), in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// Filesystem type of `path` ("ext4", "tmpfs", ...), from statfs.
[[nodiscard]] std::string filesystem_type(const std::string& path);

/// Quantile `q` in [0, 1] by linear interpolation (0 for no samples).
[[nodiscard]] double quantile(std::vector<double> samples, double q);

// The workloads (README: "Workloads").
[[nodiscard]] Report run_survey(const Options& options, bool durable);
[[nodiscard]] Report run_select_mix(const Options& options);
[[nodiscard]] Report run_fleet_mixed(const Options& options);

}  // namespace upin::e2e
