// schema.hpp — the measurement database schema (paper Fig 3).
//
// Three collections:
//   availableServers  {_id: "<n>", server_id, address}
//   paths             {_id: "<server>_<path>", server_id, path_id,
//                      sequence, hops, isds, hop_count, mtu, status,
//                      static_latency_ms}
//   paths_stats       {_id: "<server>_<path>_<timestamp>", path_id,
//                      server_id, timestamp_ms, hop_count, isds,
//                      latency_ms, loss_pct, jitter_ms,
//                      bw: {up_64, down_64, up_mtu, down_mtu},
//                      target_mbps}
//
// Ids follow the paper exactly: "a path whose id is 2_15 identifies the
// path 15 of the destination 2", and a stats id appends the timestamp.
#pragma once

#include <optional>
#include <string>

#include "docdb/document.hpp"
#include "scion/path.hpp"
#include "scion/isd_asn.hpp"
#include "util/clock.hpp"

namespace upin::measure {

inline constexpr const char* kAvailableServers = "availableServers";
inline constexpr const char* kPaths = "paths";
inline constexpr const char* kPathsStats = "paths_stats";
/// Crash-safe resume ledger: one document per completed (destination,
/// iteration) measurement unit, written through the journal right after
/// the unit's batch commits, so a killed campaign restarts without
/// re-measuring finished work.
inline constexpr const char* kCampaignCheckpoints = "campaign_checkpoints";
/// Self-describing runs: JSON snapshots of the metrics registry, written
/// alongside the data they describe ("latest" refreshed at every
/// checkpoint, "final" at campaign end) so a database file alone answers
/// how its campaign behaved — no logs required.
inline constexpr const char* kCampaignMetrics = "campaign_metrics";

/// "2_15" for path 15 of destination 2.
[[nodiscard]] std::string path_doc_id(int server_id, int path_index);

/// "2_15_000000012000" — path id + virtual-time token.
[[nodiscard]] std::string stats_doc_id(const std::string& path_id,
                                       util::SimTime t);

/// availableServers document.
[[nodiscard]] docdb::Document server_document(int server_id,
                                              const scion::SnetAddress& addr);

/// paths document for a discovered path.
[[nodiscard]] docdb::Document path_document(int server_id, int path_index,
                                            const scion::Path& path);

/// Inputs for one paths_stats document.  Optional fields are omitted
/// (e.g. latency when every probe was lost).
struct StatsSample {
  std::string path_id;
  int server_id = 0;
  util::SimTime timestamp{};
  std::size_t hop_count = 0;
  std::vector<std::int64_t> isds;
  std::optional<double> latency_ms;
  double loss_pct = 0.0;
  std::optional<double> jitter_ms;
  std::optional<double> bw_up_64;    ///< client->server, 64-byte packets
  std::optional<double> bw_down_64;  ///< server->client, 64-byte packets
  std::optional<double> bw_up_mtu;
  std::optional<double> bw_down_mtu;
  double target_mbps = 0.0;
};

[[nodiscard]] docdb::Document stats_document(const StatsSample& sample);

/// Decoded paths document (for consumers of the collection).
struct PathRecord {
  std::string id;
  int server_id = 0;
  int path_index = 0;
  std::string sequence;
  std::size_t hop_count = 0;
  std::vector<std::int64_t> isds;
  double mtu = 0.0;
  std::string status;
};

[[nodiscard]] util::Result<PathRecord> parse_path_document(
    const docdb::Document& doc);

/// A paths_stats document read in place: its numeric fields decoded,
/// `path_id` and `isds` left as views into the document.  Valid only as
/// long as the document is (e.g. inside Collection::for_each_match).
struct StatsView {
  const util::Value* path_id = nullptr;  ///< a string
  const util::Value* isds = nullptr;     ///< an array of ints
  int server_id = 0;
  std::int64_t timestamp_ms = 0;
  std::size_t hop_count = 0;
  double loss_pct = 0.0;
  std::optional<double> latency_ms;
  std::optional<double> jitter_ms;
  std::optional<double> bw_up_64;
  std::optional<double> bw_down_64;
  std::optional<double> bw_up_mtu;
  std::optional<double> bw_down_mtu;
  double target_mbps = 0.0;
};

/// View a paths_stats document in one walk over its fields, copying
/// nothing.  Accepts exactly the documents parse_stats_document() does.
[[nodiscard]] util::Result<StatsView> view_stats_document(
    const docdb::Document& doc);

/// Decoded paths_stats document: view_stats_document(), then copied.
[[nodiscard]] util::Result<StatsSample> parse_stats_document(
    const docdb::Document& doc);

/// "ckpt_2_15" for iteration 15 of destination 2.
[[nodiscard]] std::string checkpoint_doc_id(int server_id, int iteration);

/// One completed (destination, iteration) unit.  Carries the *exact*
/// virtual-clock reading at the end of the unit (nanoseconds) plus the
/// destination's circuit-breaker state, so a resumed campaign replays the
/// skipped unit's timeline and recovery state bit-for-bit — the invariant
/// behind "kill-then-resume stores the same documents as an uninterrupted
/// run".
struct CampaignCheckpoint {
  int server_id = 0;
  int iteration = 0;
  util::SimTime clock_end{};
  std::size_t samples_stored = 0;
  int breaker_failures = 0;
  bool breaker_open = false;
  util::SimTime breaker_opened_at{};
  /// Path-cache snapshot (scion::PathCache::snapshot(): entry metadata,
  /// no paths) taken at clock_end; null for pre-control-plane checkpoints.
  /// Restoring it re-resolves the paths through beaconing and keeps the
  /// resumed cache trajectory — and therefore hit/stale/miss behaviour —
  /// bit-identical to the uninterrupted run.
  util::Value path_cache{};
};

/// Takes the checkpoint by value so a caller done with it can move the
/// path-cache snapshot (about 100 B per cached pair) into the document.
[[nodiscard]] docdb::Document checkpoint_document(
    CampaignCheckpoint checkpoint);

[[nodiscard]] util::Result<CampaignCheckpoint> parse_checkpoint_document(
    const docdb::Document& doc);

/// campaign_metrics document: a registry snapshot stamped with the stage
/// it was taken at ("checkpoint" or "final") and the virtual clock.
[[nodiscard]] docdb::Document metrics_document(const std::string& id,
                                               const std::string& stage,
                                               util::SimTime clock,
                                               util::Value snapshot);

}  // namespace upin::measure
