// metrics.hpp — process-wide metrics registry.
//
// The paper's test suite reported progress only through its bash
// wrapper's stdout; diagnosing the §6.3 congestion episode meant
// post-hoc archaeology over MongoDB documents.  This layer gives the
// reproduction first-class run telemetry: named counters, gauges and
// fixed-bucket latency histograms, updated with cheap sharded atomics so
// the journal writer thread and the parallel-survey workers can
// instrument their hot paths without a shared lock.
//
// Two export formats make every run self-describing:
//   * to_prometheus() — the text exposition format, checked by the
//     TelemetrySmoke test and printed by `survey_runner --metrics`;
//   * snapshot()      — a JSON value, stored in the `campaign_metrics`
//     docdb collection at checkpoint/end the way the paper stores its
//     per-(path, timestamp) documents.
//
// Metric *values* are monotone over process lifetime (Prometheus
// semantics); reset_values() exists for tests and benches that measure
// deltas.  Registered metric objects are never deleted, so references
// returned by the registry stay valid for the process lifetime.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace upin::obs {

/// Monotone counter.  add() spreads contention over cache-line-padded
/// shards (one slot per thread, assigned round-robin); value() sums them.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t delta = 1) noexcept {
    shards_[shard_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() noexcept {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  [[nodiscard]] static std::size_t shard_index() noexcept;

  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins instantaneous value (queue depths, active workers).
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram.  Bucket math is util::bucket_index —
/// clamped fixed-width binning with a non-finite guard — and the counts
/// are atomics so concurrent observers never serialize.
class LatencyHistogram {
 public:
  LatencyHistogram(double lo, double hi, std::size_t bins);

  void observe(double sample) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const noexcept {
    return counts_[bin].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept;
  /// Inclusive lower edge / exclusive upper edge of a bin.
  [[nodiscard]] double bin_low(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_high(std::size_t bin) const noexcept;
  /// Approximate quantile: the upper edge of the bucket containing the
  /// q-th observation (the usual Prometheus-histogram estimate).
  [[nodiscard]] double quantile(double q) const noexcept;

  void reset() noexcept;

 private:
  double lo_;
  double width_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Named metric registry.  Registration takes a mutex (rare); updates on
/// the returned references are lock-free.  Names follow the Prometheus
/// convention: `upin_<subsystem>_<what>[_total]`.
class Registry {
 public:
  /// The process-wide registry every subsystem instruments into.
  [[nodiscard]] static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by name.  For histograms the bucket layout of the
  /// first registration wins; later callers get the same instance.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name, double lo,
                                            double hi, std::size_t bins);

  // ---- per-campaign label dimension -----------------------------------
  //
  // The fleet scheduler multiplexes N tenant campaigns over one process,
  // so its rates must be separable per tenant.  A labeled metric belongs
  // to a *family* (`name`) and carries one `campaign="<label>"` pair in
  // both export formats:
  //
  //   Prometheus: upin_fleet_units_total{campaign="3"} 12
  //   JSON:       "counters": {"upin_fleet_units_total{campaign=\"3\"}": 12}
  //
  // Get-or-create takes the registration mutex once; callers cache the
  // returned reference, so the update fast path is the same lock-free
  // sharded-atomic add as unlabeled metrics.  The unlabeled paths above
  // are untouched (no label lookup, no allocation on a lookup hit).
  [[nodiscard]] Counter& counter(std::string_view name,
                                 std::string_view campaign);
  [[nodiscard]] Gauge& gauge(std::string_view name, std::string_view campaign);

  /// Registered unlabeled metric by name, or nullptr; never registers.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const LatencyHistogram* find_histogram(
      std::string_view name) const;

  /// Prometheus text exposition (sorted by metric name — stable output).
  [[nodiscard]] std::string to_prometheus() const;

  /// JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {lo, width, total, sum, buckets: [...]}}}.
  [[nodiscard]] util::Value snapshot() const;

  /// Zero every registered value, keeping registrations.  For tests and
  /// benches measuring per-run deltas; production metrics stay monotone.
  void reset_values();

 private:
  template <typename T>
  using LabeledFamily =
      std::map<std::string, std::map<std::string, std::unique_ptr<T>,
                                     std::less<>>,
               std::less<>>;

  mutable std::mutex mutex_;
  // std::map keeps exposition output sorted and pointers stable.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
  // family name -> campaign label -> instance.
  LabeledFamily<Counter> labeled_counters_;
  LabeledFamily<Gauge> labeled_gauges_;
};

/// Human-readable table of the journal-pipeline metrics (flush-latency
/// percentiles, mean group size, backpressure stalls) — what the storage
/// benches print after each run.
[[nodiscard]] std::string pipeline_summary(const Registry& registry);

}  // namespace upin::obs
