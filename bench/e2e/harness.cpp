#include "harness.hpp"

#include <fcntl.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <regex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <variant>

#include "measure/schema.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace upin::e2e {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + index;
  return util::splitmix64(state);
}

std::int64_t thread_cpu_ns() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return std::int64_t{now.tv_sec} * 1'000'000'000 + now.tv_nsec;
}

std::int64_t process_cpu_ns() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return std::int64_t{now.tv_sec} * 1'000'000'000 + now.tv_nsec;
}

Op Report::make_op(std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t cpu_ns, double docs, int threads) {
  const auto wall_ns = static_cast<double>(end_ns - start_ns);
  const double share =
      wall_ns > 0.0 ? static_cast<double>(cpu_ns) / (wall_ns * threads) : 1.0;
  return Op{start_ns, wall_ns * 1e-6, docs, std::clamp(share, 0.0, 1.0)};
}

// ---- SpeedProbe -----------------------------------------------------------

namespace {

std::uint64_t lcg(std::uint64_t state) {
  return state * 6364136223846793005ULL + 1442695040888963407ULL;
}

/// The CPU kernel's own little document store, written with the standard
/// library only: documents of short-keyed fields (integer, real or
/// string values) in insertion-ordered vectors, and an ordered index from
/// a bucket key to the documents in it.  Short-lived blocks are allocated
/// between the documents, so they scatter over the heap as a populated
/// database's do.
struct ProbeStore {
  using Field =
      std::pair<std::string, std::variant<std::int64_t, double, std::string>>;
  using Document = std::vector<Field>;

  static constexpr std::size_t kDocuments = 4000;
  static constexpr std::size_t kFields = 20;
  static constexpr std::int64_t kBuckets = 100;  ///< 40 documents each

  std::vector<std::string> keys;
  std::vector<Document> documents;
  std::map<std::int64_t, std::vector<std::size_t>> index;
  std::regex address{"([0-9]+)-ff00:0:([0-9a-f]+)"};

  ProbeStore() {
    for (std::size_t k = 0; k < kFields; ++k) {
      keys.push_back("field_" + std::to_string(k * 7));
    }
    std::vector<std::unique_ptr<std::string>> transient;
    documents.reserve(kDocuments);
    for (std::size_t d = 0; d < kDocuments; ++d) {
      Document document;
      for (std::size_t k = 0; k < kFields; ++k) {
        if (k % 5 == 0) {
          document.emplace_back(keys[k], "1-ff00:0:" + std::to_string(d) +
                                             " 2>3 1-ff00:0:110 " +
                                             std::to_string(k));
        } else if (k % 2 == 0) {
          document.emplace_back(keys[k],
                                static_cast<std::int64_t>(d * 13 + k));
        } else {
          document.emplace_back(keys[k], static_cast<double>(d) * 0.37 +
                                             static_cast<double>(k));
        }
        transient.push_back(
            std::make_unique<std::string>(64 + d % 7 * 16, 'x'));
      }
      documents.push_back(std::move(document));
      index[static_cast<std::int64_t>(d) % kBuckets].push_back(d);
      if (transient.size() > 5000) {
        transient.erase(transient.begin(), transient.begin() + 2500);
      }
    }
  }
};

const ProbeStore& probe_store() {
  static const ProbeStore store;
  return store;
}

/// The kernel's results end here, so the compiler cannot drop its work.
/// Only the thread that drives a workload runs the probe.
volatile std::uint64_t probe_sink = 0;
std::uint64_t probe_state = 12345;

/// What a selection does to a database, on the probe's store: two index
/// lookups, a copy of each of the 40 documents found, five numeric fields
/// read from each by key, and the values sorted.
std::size_t document_chores(const ProbeStore& store) {
  std::vector<double> values;
  for (int lookup = 0; lookup < 2; ++lookup) {
    probe_state = lcg(probe_state);
    const auto bucket = static_cast<std::int64_t>(
        (probe_state >> 33) % static_cast<std::uint64_t>(ProbeStore::kBuckets));
    std::vector<ProbeStore::Document> found;
    for (const std::size_t id : store.index.find(bucket)->second) {
      found.push_back(store.documents[id]);
    }
    for (const ProbeStore::Document& document : found) {
      for (std::size_t k = 1; k < ProbeStore::kFields; k += 4) {
        for (const ProbeStore::Field& field : document) {
          if (field.first != store.keys[k]) continue;
          if (const auto* real = std::get_if<double>(&field.second)) {
            values.push_back(*real);
          } else if (const auto* integer =
                         std::get_if<std::int64_t>(&field.second)) {
            values.push_back(static_cast<double>(*integer));
          }
          break;
        }
      }
    }
  }
  std::sort(values.begin(), values.end());
  return values.size();
}

/// Many small jobs through different parts of the standard library, as a
/// request's set-up and bookkeeping run through many parts of the
/// program: numbers formatted through a stream, AS-like names built and
/// kept in a hashed and an ordered map, a regex over some of them, a
/// stable sort, and calls through std::function.
std::size_t library_chores(const ProbeStore& store) {
  std::size_t total = 0;
  std::ostringstream formatted;
  formatted.precision(6);
  std::unordered_map<std::string, int> hashed;
  std::set<std::string> ordered;
  std::vector<std::string> names;
  for (int k = 0; k < 60; ++k) {
    probe_state = lcg(probe_state);
    formatted << static_cast<double>(probe_state >> 40) * 1e-3 << ' ';
    std::string name = std::to_string(1 + (probe_state >> 60)) + "-ff00:0:" +
                       std::to_string((probe_state >> 40) % 4096);
    hashed[name] += k;
    ordered.insert(name);
    names.push_back(std::move(name));
  }
  for (std::size_t k = 0; k < 12; ++k) {
    std::smatch match;
    if (std::regex_search(names[k], match, store.address)) {
      total += static_cast<std::size_t>(match[2].length());
    }
  }
  std::stable_sort(names.begin(), names.end());
  const std::vector<std::function<std::size_t(const std::string&)>> calls = {
      [](const std::string& s) { return s.size(); },
      [](const std::string& s) { return s.find(':'); },
      [](const std::string& s) { return std::hash<std::string>{}(s) & 7U; }};
  for (const std::string& name : names) {
    for (const auto& call : calls) total += call(name);
  }
  return total + formatted.str().size() + hashed.size() + ordered.size();
}

/// The CPU kernel's wall time in ms.
double cpu_kernel_ms() {
  const ProbeStore& store = probe_store();
  const std::int64_t start = now_ns();
  const std::size_t work = document_chores(store) + library_chores(store);
  const std::int64_t end = now_ns();
  probe_sink = probe_sink + work;
  return static_cast<double>(end - start) * 1e-6;
}

/// The I/O kernel's wall time in ms: a 512-byte append and fsync through
/// POSIX calls (not the docdb VFS); 0 when the file cannot be written.
double io_kernel_ms(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) return 0.0;
  static const std::string record(512, 'p');
  const std::int64_t start = now_ns();
  const bool ok =
      ::write(fd, record.data(), record.size()) ==
          static_cast<ssize_t>(record.size()) &&
      ::fsync(fd) == 0;
  const std::int64_t end = now_ns();
  ::close(fd);
  return ok ? static_cast<double>(end - start) * 1e-6 : 0.0;
}

}  // namespace

SpeedProbe::SpeedProbe() { (void)probe_store(); }

void SpeedProbe::enable_io(const std::string& dir) {
  io_path_ = dir + "/io_probe";
}

void SpeedProbe::tick() {
  const std::int64_t now = now_ns();
  if (now - last_cpu_ns_ >= 50'000'000) sample_cpu();
  if (!io_path_.empty() && now - last_io_ns_ >= 100'000'000) sample_io();
}

void SpeedProbe::sample() {
  sample_cpu();
  if (!io_path_.empty()) sample_io();
}

void SpeedProbe::sample_cpu() {
  const double ms = cpu_kernel_ms();
  last_cpu_ns_ = now_ns();
  cpu_samples_.push_back(Sample{last_cpu_ns_, ms});
}

void SpeedProbe::sample_io() {
  const double ms = io_kernel_ms(io_path_);
  last_io_ns_ = now_ns();
  if (ms > 0.0) io_samples_.push_back(Sample{last_io_ns_, ms});
}

double SpeedProbe::median_ms(Kernel kernel, std::int64_t from_ns,
                             std::int64_t to_ns) const {
  const std::vector<Sample>& samples =
      kernel == Kernel::kCpu ? cpu_samples_ : io_samples_;
  const std::size_t wanted = std::min<std::size_t>(3, samples.size());
  // Widen the window half a second a side until it holds 3 samples.
  for (std::int64_t pad = 0;; pad += 500'000'000) {
    std::vector<double> inside;
    for (const Sample& s : samples) {
      if (s.at_ns >= from_ns - pad && s.at_ns < to_ns + pad) {
        inside.push_back(s.ms);
      }
    }
    if (inside.size() >= wanted) return quantile(inside, 0.5);
  }
}

SpeedProbe::Scales SpeedProbe::scales(std::int64_t from_ns,
                                      std::int64_t to_ns) const {
  const double cpu = median_ms(Kernel::kCpu, from_ns, to_ns);
  const double io = median_ms(Kernel::kIo, from_ns, to_ns);
  return Scales{cpu > 0.0 ? kNominalCpuMs / cpu : 1.0,
                io > 0.0 ? kNominalIoMs / io : 1.0};
}

// ---- Tracer -------------------------------------------------------------

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t id)
    : tracer_(tracer) {
  const std::int64_t start = now_ns();
  std::int64_t record = -1;
  if (tracer.records_.size() < kStoredSpans) {
    const std::int64_t parent =
        tracer.stack_.empty() ? -1 : tracer.stack_.back().record;
    record = static_cast<std::int64_t>(tracer.records_.size());
    tracer.records_.push_back(Record{name, start, 0, parent, id});
  }
  tracer.stack_.push_back(Frame{name, start, 0, record});
}

Tracer::Span::~Span() {
  const std::int64_t end = now_ns();
  const Frame frame = tracer_.stack_.back();
  tracer_.stack_.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  if (!tracer_.stack_.empty()) tracer_.stack_.back().child_ns += duration;
  Totals& totals = tracer_.totals_[frame.name];
  totals.self_ns += duration - frame.child_ns;
  totals.total_ns += duration;
  if (frame.record >= 0) {
    tracer_.records_[static_cast<std::size_t>(frame.record)].end_ns = end;
  }
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

double Tracer::self_us(std::string_view name, double ops) const {
  return ops > 0.0 ? static_cast<double>(totals(name).self_ns) * 1e-3 / ops
                   : 0.0;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t epoch = records_.empty() ? 0 : records_.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns - epoch
        << ",\"end_ns\":" << r.end_ns - epoch << ",\"parent\":" << r.parent
        << ",\"id\":" << r.id << "}"
        << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double add_trace_layers(Report& report, const Tracer& tracer, const char* root,
                        double untraced_per_s, double traced_per_s) {
  const Tracer::Totals totals = tracer.totals(root);
  const double coverage =
      totals.total_ns > 0 ? 1.0 - static_cast<double>(totals.self_ns) /
                                      static_cast<double>(totals.total_ns)
                          : 0.0;
  report.layer["trace.coverage"] = coverage;
  report.layer["trace.overhead_pct"] =
      traced_per_s > 0.0 ? (untraced_per_s / traced_per_s - 1.0) * 100.0 : 0.0;
  return coverage;
}

void write_trace(Report& report, const Tracer& tracer, const Options& options) {
  const std::string path =
      options.trace_dir + "/trace_" + options.workload + ".json";
  report.check(tracer.write_json(path), "cannot write " + path);
}

// ---- CountingVfs ----------------------------------------------------------

class CountingFile final : public docdb::File {
 public:
  CountingFile(std::unique_ptr<docdb::File> inner, CountingVfs& owner)
      : inner_(std::move(inner)), owner_(owner) {}

  util::Status append(std::string_view data) override {
    const std::int64_t start = now_ns();
    util::Status status = inner_->append(data);
    owner_.append_ns_.fetch_add(static_cast<std::uint64_t>(now_ns() - start),
                                std::memory_order_relaxed);
    owner_.appends_.fetch_add(1, std::memory_order_relaxed);
    owner_.bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    return status;
  }
  util::Status flush() override { return inner_->flush(); }
  util::Status sync() override {
    const std::int64_t start = now_ns();
    util::Status status = inner_->sync();
    owner_.sync_ns_.fetch_add(static_cast<std::uint64_t>(now_ns() - start),
                              std::memory_order_relaxed);
    owner_.syncs_.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  void close() override { inner_->close(); }
  bool is_open() const noexcept override { return inner_->is_open(); }

 private:
  std::unique_ptr<docdb::File> inner_;
  CountingVfs& owner_;
};

CountingVfs::Counts CountingVfs::counts() const noexcept {
  return Counts{appends_.load(), syncs_.load(), bytes_.load(),
                append_ns_.load(), sync_ns_.load()};
}

util::Result<std::unique_ptr<docdb::File>> CountingVfs::wrap(
    util::Result<std::unique_ptr<docdb::File>> opened) {
  if (!opened.ok()) return opened;
  return std::unique_ptr<docdb::File>(
      std::make_unique<CountingFile>(std::move(opened).value(), *this));
}

util::Result<std::unique_ptr<docdb::File>> CountingVfs::open_append(
    const std::string& path) {
  return wrap(docdb::Vfs::real().open_append(path));
}

util::Result<std::unique_ptr<docdb::File>> CountingVfs::open_trunc(
    const std::string& path) {
  return wrap(docdb::Vfs::real().open_trunc(path));
}

util::Status CountingVfs::rename(const std::string& from,
                                 const std::string& to) {
  return docdb::Vfs::real().rename(from, to);
}

util::Status CountingVfs::sync_parent_dir(const std::string& path) {
  return docdb::Vfs::real().sync_parent_dir(path);
}

util::Status CountingVfs::truncate(const std::string& path,
                                   std::uint64_t size) {
  return docdb::Vfs::real().truncate(path, size);
}

util::Status CountingVfs::remove(const std::string& path) {
  return docdb::Vfs::real().remove(path);
}

// ---- counters ---------------------------------------------------------------

Counters Counters::read(const CountingVfs* vfs) {
  obs::Registry& registry = obs::Registry::global();
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  const obs::LatencyHistogram& groups =
      registry.histogram("upin_journal_group_size", 0.0, 256.0, 32);
  const CountingVfs::Counts io =
      vfs != nullptr ? vfs->counts() : CountingVfs::Counts{};
  Counters counters;
  counters.value = {static_cast<double>(io.appends),
                    static_cast<double>(io.syncs),
                    static_cast<double>(io.bytes),
                    static_cast<double>(io.append_ns),
                    static_cast<double>(io.sync_ns),
                    static_cast<double>(groups.total()),
                    groups.sum(),
                    counter("upin_journal_backpressure_stalls_total"),
                    counter("upin_query_plans_scan_total"),
                    counter("upin_query_plans_index_point_total"),
                    counter("upin_query_plans_index_range_total"),
                    counter("upin_path_cache_hits_total"),
                    counter("upin_path_cache_misses_total")};
  return counters;
}

Counters& Counters::operator+=(const Counters& other) {
  for (std::size_t i = 0; i < value.size(); ++i) value[i] += other.value[i];
  return *this;
}

Counters Counters::operator-(const Counters& other) const {
  Counters delta = *this;
  for (std::size_t i = 0; i < value.size(); ++i) {
    delta.value[i] -= other.value[i];
  }
  return delta;
}

void add_counter_layers(Report& report, const Counters& delta, double ops,
                        double docs, double user_bytes) {
  const auto per_op = [&](Counters::Field field) {
    return ops > 0.0 ? delta[field] / ops : 0.0;
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto& layer = report.layer;
  layer["docdb.vfs.appends"] = per_op(Counters::kVfsAppends);
  layer["docdb.vfs.syncs"] = per_op(Counters::kVfsSyncs);
  layer["docdb.vfs.bytes"] = per_op(Counters::kVfsBytes);
  layer["docdb.vfs.append_us"] = per_op(Counters::kVfsAppendNs) * 1e-3;
  layer["docdb.vfs.sync_us"] = per_op(Counters::kVfsSyncNs) * 1e-3;
  layer["docdb.write_amp"] = ratio(delta[Counters::kVfsBytes], user_bytes);
  layer["docdb.journal_bytes_per_doc"] =
      ratio(delta[Counters::kVfsBytes], docs);
  layer["docdb.journal.mean_group_size"] =
      ratio(delta[Counters::kJournalGroupEvents],
            delta[Counters::kJournalGroups]);
  layer["docdb.journal.backpressure_stalls"] = per_op(Counters::kJournalStalls);
  layer["docdb.plans.scan"] = per_op(Counters::kPlanScan);
  layer["docdb.plans.index_point"] = per_op(Counters::kPlanIndexPoint);
  layer["docdb.plans.index_range"] = per_op(Counters::kPlanIndexRange);
  layer["scion.path_cache.hit_ratio"] =
      ratio(delta[Counters::kCacheHits],
            delta[Counters::kCacheHits] + delta[Counters::kCacheMisses]);
}

// ---- checks -----------------------------------------------------------------

StatsDigest stats_digest(const docdb::Database& db) {
  StatsDigest digest;
  std::vector<std::string> dumps;
  if (const docdb::Collection* stats =
          db.find_collection(measure::kPathsStats)) {
    stats->for_each(
        [&](const docdb::Document& doc) { dumps.push_back(doc.dump()); });
  }
  std::sort(dumps.begin(), dumps.end());
  util::Sha256 hasher;
  for (const std::string& dump : dumps) {
    hasher.update(dump);
    hasher.update("\n");
    digest.bytes += dump.size();
  }
  digest.docs = dumps.size();
  digest.hex = util::to_hex(hasher.finish());
  return digest;
}

std::size_t sample_count_spread(const docdb::Database& db) {
  const docdb::Collection* paths = db.find_collection(measure::kPaths);
  const docdb::Collection* stats = db.find_collection(measure::kPathsStats);
  if (paths == nullptr || stats == nullptr) return 0;
  std::map<std::string, std::size_t, std::less<>> per_path;
  stats->for_each([&](const docdb::Document& doc) {
    if (const util::Value* id = doc.get("path_id"); id && id->is_string()) {
      ++per_path[id->as_string()];
    }
  });
  std::map<std::int64_t, std::pair<std::size_t, std::size_t>> per_server;
  paths->for_each([&](const docdb::Document& doc) {
    const util::Value* server = doc.get("server_id");
    const auto id = docdb::document_id(doc);
    if (server == nullptr || !server->is_int() || !id.has_value()) return;
    const auto it = per_path.find(*id);
    const std::size_t count = it == per_path.end() ? 0 : it->second;
    auto [entry, fresh] =
        per_server.try_emplace(server->as_int(), count, count);
    if (!fresh) {
      entry->second.first = std::min(entry->second.first, count);
      entry->second.second = std::max(entry->second.second, count);
    }
  });
  std::size_t spread = 0;
  for (const auto& [server, range] : per_server) {
    spread = std::max(spread, range.second - range.first);
  }
  return spread;
}

void OpTally::add(const measure::TestSuiteProgress& p) {
  // A path test that produced a sample ran its ping successfully; every
  // such test also ran two bandwidth probes unless they were shed.
  const std::size_t pings = p.path_tests_run + p.ping_failures;
  const std::size_t bwtests = 2 * p.path_tests_run - p.probes_shed;
  const std::size_t batches = p.batches_inserted + p.batches_rejected;
  attempted += pings + bwtests + batches;
  failed += p.ping_failures + p.bwtest_failures + p.batches_rejected;
}

// ---- process facts ----------------------------------------------------------

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // KiB -> MB
    }
  }
  return 0.0;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x2FC12FC1UL: return "zfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

}  // namespace upin::e2e
