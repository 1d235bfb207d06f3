// beacon.hpp — SCION control plane: beaconing and segment combination.
//
// SCION discovers paths with Path Construction Beacons: core ASes flood
// beacons over core links (core segments) and down the intra-ISD
// parent→child hierarchy (up/down segments).  An end-to-end path is a
// combination up-segment + core-segment + down-segment, with the usual
// degenerate forms (shared core, common-AS shortcut).  This module
// computes all segments for a Topology and combines them on demand —
// which is exactly what `scion showpaths` surfaces to the user (§3.3).
// Combination is a pure function of the topology, so each (src, dst)
// pair is combined once and its answer kept.  The kept answer is the one
// copy of a pair's paths: the path cache reads it by reference and keeps
// only entry lifetimes of its own.
#pragma once

#include <unordered_map>
#include <vector>

#include "scion/path.hpp"
#include "scion/topology.hpp"
#include "util/memo.hpp"

namespace upin::scion {

/// A path segment: an AS sequence.
/// Up segments run leaf→core, core segments coreA→coreB, down segments
/// core→leaf.
struct Segment {
  enum class Type { kUp, kCore, kDown };
  Type type = Type::kUp;
  std::vector<IsdAsn> ases;
  /// Lifetime window stamped at beaconing time: segments are valid from
  /// `created_at` until `expires_at` (SCION defaults to 6 h), after which
  /// they must be re-beaconed or served flagged stale.
  util::SimTime created_at{};
  util::SimTime expires_at{};
};

/// Limits on segment exploration; defaults cover SCIONLab-scale graphs.
struct BeaconConfig {
  std::size_t max_up_segment_ases = 4;    ///< leaf..core inclusive
  std::size_t max_core_segment_ases = 5;  ///< coreA..coreB inclusive
  std::size_t max_paths = 256;            ///< combination cutoff per pair
  /// Segment lifetime in virtual seconds (SCION's default is 6 hours).
  double segment_lifetime_s = 21600.0;
};

/// Precomputed segment store for one topology.
class Beaconing {
 public:
  explicit Beaconing(const Topology& topology, BeaconConfig config = {});

  /// Up segments from `leaf` to any core AS of its ISD (leaf→core order).
  /// Core ASes have a single trivial segment {leaf}.
  [[nodiscard]] const std::vector<Segment>& up_segments(IsdAsn leaf) const;

  /// Core segments from `from` to `to` (both core ASes).
  [[nodiscard]] std::vector<Segment> core_segments(IsdAsn from, IsdAsn to) const;

  /// Down segments from core `core` to `leaf` (core→leaf order).
  [[nodiscard]] std::vector<Segment> down_segments(IsdAsn core, IsdAsn leaf) const;

  /// All end-to-end paths src→dst from segment combination, deduplicated,
  /// loop-free, sorted by (hop count, static latency) and truncated to
  /// `config.max_paths`.  Mirrors `scion showpaths` ranking.  The answer
  /// is a pure function of the topology, so each pair is combined once,
  /// on its first call, and kept; every call returns the kept answer
  /// itself, at the same address, valid for the lifetime of this
  /// `Beaconing` (kept answers are never erased, and a `Beaconing` cannot
  /// be assigned).  Safe to call from several threads on one
  /// `const Beaconing`.
  [[nodiscard]] const std::vector<Path>& paths(IsdAsn src, IsdAsn dst) const;

 private:
  void compute_up_segments();
  void compute_core_paths();
  [[nodiscard]] Path materialize(const std::vector<IsdAsn>& ases) const;
  /// Segment combination proper: what `paths` keeps per pair.
  [[nodiscard]] std::vector<Path> combine(IsdAsn src, IsdAsn dst) const;

  const Topology& topology_;
  BeaconConfig config_;
  std::unordered_map<IsdAsn, std::vector<Segment>> up_by_leaf_;
  /// All simple core-graph paths up to the cap, keyed by endpoint pair.
  std::unordered_map<IsdAsn, std::vector<std::vector<IsdAsn>>> core_from_;
  std::vector<Segment> empty_;
  util::Memo<AsPair, std::vector<Path>, AsPairHash> combined_;
};

}  // namespace upin::scion
