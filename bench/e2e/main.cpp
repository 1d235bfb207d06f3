// upin_e2e — the end-to-end benchmark of the reproduction (README.md).
//
//   upin_e2e [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//            [--smoke] [--data-dir D] [--trace-dir T] [--out DIR]
//
// One workload runs per process.  Without --workload the program runs
// every workload, each in a child process of its own (a re-exec), so
// peak_rss_mb covers one workload only.  Each run prints one
// `workload metric value unit` line per metric, then a JSON object as
// its last line; with --out it also writes that object, with the
// workload and seed, to DIR/<workload>-seed<N>[-trace].json.  The exit
// code is non-zero when any output check failed.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "harness.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

extern char** environ;

namespace {

using namespace upin;
using e2e::Options;
using e2e::Report;

const char* const kWorkloads[] = {"survey-paper", "survey-durable",
                                  "select-mix", "fleet-mixed"};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets of BENCHMARK.json: every workload reports all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"op_ms_p50", "ms"},    {"op_ms_p90", "ms"},
    {"docs_per_s", "1/s"},  {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"apps.ping.self_us", "us"},
    {"apps.ping.calls", "count"},
    {"apps.bwtest.self_us", "us"},
    {"apps.bwtest.calls", "count"},
    {"scion.checkpoint.self_us", "us"},
    {"scion.checkpoint.bytes", "B"},
    {"scion.path_cache.hit_ratio", "ratio"},
    {"measure.encode.self_us", "us"},
    {"measure.parse.self_us", "us"},
    {"measure.residual_us", "us"},
    {"measure.retry.retries", "count"},
    {"measure.failed_share", "ratio"},
    {"docdb.find.self_us", "us"},
    {"docdb.find.docs_returned", "count"},
    {"docdb.insert.self_us", "us"},
    {"docdb.insert.calls", "count"},
    {"docdb.vfs.append_us", "us"},
    {"docdb.vfs.sync_us", "us"},
    {"docdb.vfs.appends", "count"},
    {"docdb.vfs.syncs", "count"},
    {"docdb.vfs.bytes", "B"},
    {"docdb.write_amp", "ratio"},
    {"docdb.journal_bytes_per_doc", "B"},
    {"docdb.journal.mean_group_size", "count"},
    {"docdb.journal.backpressure_stalls", "count"},
    {"docdb.replay_ms", "ms"},
    {"docdb.plans.scan", "count"},
    {"docdb.plans.index_point", "count"},
    {"docdb.plans.index_range", "count"},
    {"obs.snapshot.self_us", "us"},
    {"obs.snapshot.bytes", "B"},
    {"select.create.self_us", "us"},
    {"select.aggregate.self_us", "us"},
    {"select.rank.self_us", "us"},
    {"fleet.units", "count"},
    {"fleet.backpressure_rejections", "count"},
    {"fleet.watchdog_trips", "count"},
    {"fleet.probes_shed", "count"},
    {"fleet.tenants_degraded", "count"},
    {"fleet.tenants_quarantined", "count"},
    {"fleet.tenants_failed", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* message) {
  std::fprintf(stderr,
               "upin_e2e: %s\nusage: upin_e2e [--workload W] [--seed N] "
               "[--seconds S] [--trace [0|1]] [--smoke] [--data-dir D] "
               "[--trace-dir T] [--out DIR]\n",
               message);
  return 2;
}

/// Re-exec this binary once per workload and wait for each child.
int run_all(int argc, char** argv) {
  int worst = 0;
  for (const char* workload : kWorkloads) {
    std::vector<char*> args(argv, argv + argc);
    std::string flag = "--workload";
    std::string name = workload;
    args.push_back(flag.data());
    args.push_back(name.data());
    args.push_back(nullptr);
    pid_t child = 0;
    if (posix_spawn(&child, "/proc/self/exe", nullptr, nullptr, args.data(),
                    environ) != 0) {
      std::fprintf(stderr, "upin_e2e: cannot start %s\n", workload);
      return 1;
    }
    int status = 0;
    if (waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "upin_e2e: workload %s failed\n", workload);
      worst = 1;
    }
  }
  return worst;
}

/// The median, over consecutive one-second blocks of the measured phase,
/// of each block's p50 and p90 operation time and its documents per
/// second.  Each operation's time is scaled to a quiet host by the probe
/// samples of its block: its on-CPU share by the CPU kernel, the rest by
/// the I/O kernel (`probe` null: wall time as measured).  Outside load on
/// a shared machine comes in bursts; it spoils a few blocks rather than
/// the run's numbers.
struct BlockMedians {
  double p50 = 0.0;
  double p90 = 0.0;
  double docs_per_s = 0.0;
};

BlockMedians block_medians(const std::vector<e2e::Op>& ops,
                           const e2e::SpeedProbe* probe) {
  constexpr std::int64_t kBlockNs = 1'000'000'000;
  std::map<std::int64_t, std::vector<e2e::Op>> blocks;
  for (const e2e::Op& op : ops) {
    blocks[(op.start_ns - ops.front().start_ns) / kBlockNs].push_back(op);
  }
  std::vector<double> p50, p90, rate;
  for (const auto& [index, block] : blocks) {
    const std::int64_t from = ops.front().start_ns + index * kBlockNs;
    const e2e::SpeedProbe::Scales scales =
        probe == nullptr ? e2e::SpeedProbe::Scales{}
                         : probe->scales(from, from + kBlockNs);
    std::vector<double> ms;
    double docs = 0.0;
    double total_ms = 0.0;
    for (const e2e::Op& op : block) {
      ms.push_back(op.ms * scales.of(op.cpu_share));
      docs += op.docs;
      total_ms += ms.back();
    }
    p50.push_back(e2e::quantile(ms, 0.5));
    p90.push_back(e2e::quantile(ms, 0.9));
    rate.push_back(docs / (total_ms * 1e-3));
  }
  return BlockMedians{e2e::quantile(p50, 0.5), e2e::quantile(p90, 0.5),
                      e2e::quantile(rate, 0.5)};
}

/// Median set-up time in seconds, each set-up scaled like an operation.
double setup_median_s(const std::vector<e2e::Op>& setups,
                      const e2e::SpeedProbe* probe) {
  std::vector<double> seconds;
  for (const e2e::Op& setup : setups) {
    const auto end =
        setup.start_ns + static_cast<std::int64_t>(setup.ms * 1e6);
    const e2e::SpeedProbe::Scales scales =
        probe == nullptr ? e2e::SpeedProbe::Scales{}
                         : probe->scales(setup.start_ns, end);
    seconds.push_back(setup.ms * 1e-3 * scales.of(setup.cpu_share));
  }
  return e2e::quantile(seconds, 0.5);
}

util::Value metric(double value, const char* unit) {
  util::JsonObject entry;
  entry.set("value", util::Value(value));
  entry.set("unit", util::Value(unit));
  return util::Value(std::move(entry));
}

Report run_workload(const Options& options) {
  const std::string& w = options.workload;
  if (w == "survey-paper") return e2e::run_survey(options, false);
  if (w == "survey-durable") return e2e::run_survey(options, true);
  if (w == "select-mix") return e2e::run_select_mix(options);
  return e2e::run_fleet_mixed(options);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.trace_dir = ".";
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = true;
        if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                             std::strcmp(argv[i + 1], "1") == 0)) {
          options.trace = std::strcmp(argv[++i], "1") == 0;
        }
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--data-dir") {
        options.data_dir = value();
      } else if (arg == "--trace-dir") {
        options.trace_dir = value();
      } else if (arg == "--out") {
        out_dir = value();
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception& error) {
      return usage(error.what());
    }
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  if (options.smoke) options.seconds = std::min(options.seconds, 0.3);
  if (options.workload.empty()) return run_all(argc, argv);
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return options.workload == w; }) ==
      std::end(kWorkloads)) {
    return usage(("unknown workload " + options.workload).c_str());
  }

  util::Log::set_level(util::LogLevel::kError);
  // A private directory per run: journals and shards never collide.
  const std::filesystem::path data_root =
      options.data_dir.empty() ? std::filesystem::temp_directory_path()
                               : std::filesystem::path(options.data_dir);
  const std::filesystem::path data_dir =
      data_root / ("upin_e2e_" + options.workload + "_" +
                   std::to_string(::getpid()));
  std::error_code error;
  std::filesystem::create_directories(data_dir, error);
  if (error) return usage(("cannot create " + data_dir.string()).c_str());
  options.data_dir = data_dir.string();

  Report report = run_workload(options);
  std::filesystem::remove_all(data_dir, error);

  util::JsonObject metrics;
  const auto emit = [&](const char* name, double value, const char* unit) {
    std::printf("%s %s %.6g %s\n", options.workload.c_str(), name, value, unit);
    metrics.set(name, metric(value, unit));
  };
  if (options.trace) {
    std::set<std::string> listed;
    for (const MetricSpec& spec : kPerLayer) {
      listed.insert(spec.name);
      const auto it = report.layer.find(spec.name);
      emit(spec.name, it == report.layer.end() ? 0.0 : it->second, spec.unit);
    }
    for (const auto& [name, value] : report.layer) {
      report.check(listed.contains(name), "unlisted per-layer metric " + name);
    }
  } else {
    const BlockMedians blocks = block_medians(report.ops, &report.probe);
    const double values[] = {
        setup_median_s(report.setups, &report.probe),
        blocks.p50,
        blocks.p90,
        blocks.docs_per_s,
        e2e::peak_rss_mb(),
    };
    for (std::size_t m = 0; m < std::size(kEndToEnd); ++m) {
      emit(kEndToEnd[m].name, values[m], kEndToEnd[m].unit);
      report.check(values[m] > 0.0,
                   std::string(kEndToEnd[m].name) + " measured as 0");
    }
    // The same metrics as the wall clock read them, and the host speed.
    const BlockMedians wall = block_medians(report.ops, nullptr);
    report.notes.push_back(util::format(
        "wall setup_s %.6g op_ms_p50 %.6g op_ms_p90 %.6g docs_per_s %.6g",
        setup_median_s(report.setups, nullptr), wall.p50, wall.p90,
        wall.docs_per_s));
    using Kernel = e2e::SpeedProbe::Kernel;
    report.notes.push_back(util::format(
        "probe median cpu %.4g ms (nominal %.4g ms) io %.4g ms (nominal "
        "%.4g ms)",
        report.probe.median_ms(Kernel::kCpu, INT64_MIN / 2, INT64_MAX / 2),
        e2e::SpeedProbe::kNominalCpuMs,
        report.probe.median_ms(Kernel::kIo, INT64_MIN / 2, INT64_MAX / 2),
        e2e::SpeedProbe::kNominalIoMs));
  }
  for (const std::string& note : report.notes) {
    std::printf("# %s %s\n", options.workload.c_str(), note.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", options.workload.c_str(),
                 failure.c_str());
  }

  util::JsonObject result;
  result.set("correct", util::Value(report.failures.empty()));
  result.set("attempted", util::Value(report.attempted));
  result.set("failed", util::Value(report.failed));
  result.set("metrics", util::Value(std::move(metrics)));
  const util::Value line(std::move(result));
  if (!out_dir.empty()) {
    util::JsonObject record;
    record.set("workload", util::Value(options.workload));
    record.set("seed", util::Value(static_cast<std::int64_t>(options.seed)));
    record.set("trace", util::Value(options.trace));
    record.set("result", line);
    std::filesystem::create_directories(out_dir, error);
    const std::string path = out_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) +
                             (options.trace ? "-trace" : "") + ".json";
    std::ofstream(path) << util::Value(std::move(record)).dump() << "\n";
  }
  std::printf("%s\n", line.dump().c_str());
  return report.failures.empty() ? 0 : 1;
}
