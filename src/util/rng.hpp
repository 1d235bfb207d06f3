// rng.hpp — deterministic random number generation.
//
// Every stochastic component of the simulator (jitter, background traffic,
// overflow episodes) draws from an Rng seeded from a single experiment
// seed, so a full survey run is bit-reproducible.  Substreams are forked
// by label (`fork("link:AMS-FRA")`), which keeps draws independent of the
// order in which other components consume randomness.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace upin::util {

/// SplitMix64: used to expand seeds and hash labels into stream seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// FNV-1a 64-bit hash of a string, for label-derived substreams.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text) noexcept;

/// Continue an FNV-1a hash over more bytes:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a + b)`.  Lets a caller hash
/// a fixed label prefix once and stream the varying suffix.
[[nodiscard]] std::uint64_t fnv1a64_extend(std::uint64_t hash,
                                           std::string_view text) noexcept;
/// Continue an FNV-1a hash over the decimal digits of `value` — the same
/// characters `std::to_string(value)` produces, without building them.
[[nodiscard]] std::uint64_t fnv1a64_extend(std::uint64_t hash,
                                           std::int64_t value) noexcept;
/// Continue an FNV-1a hash over `value` in fixed notation with six
/// decimals — the characters `std::to_string(value)` produces, without
/// building them.
[[nodiscard]] std::uint64_t fnv1a64_extend_fixed(std::uint64_t hash,
                                                 double value) noexcept;

/// xoshiro256** PRNG — fast, high-quality, deterministic across platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Derive an independent substream tied to `label`.  Forking the same
  /// label from the same parent always yields the same stream.
  [[nodiscard]] Rng fork(std::string_view label) const noexcept;
  /// `fork` for a label already hashed with `fnv1a64` (or streamed with
  /// `fnv1a64_extend`): `fork_hashed(fnv1a64(x))` is `fork(x)`.
  [[nodiscard]] Rng fork_hashed(std::uint64_t label_hash) const noexcept;

  /// Raw 64 random bits (UniformRandomBitGenerator interface).
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box–Muller (cached spare).
  double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;
  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy-tailed jitter).
  double pareto(double xm, double alpha) noexcept;
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;
  /// Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    if (items.empty()) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace upin::util
