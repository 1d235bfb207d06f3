#include "util/rng.hpp"

#include <charconv>
#include <cmath>

namespace upin::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a64(std::string_view text) noexcept {
  return fnv1a64_extend(0xCBF29CE484222325ULL, text);
}

std::uint64_t fnv1a64_extend(std::uint64_t hash,
                             std::string_view text) noexcept {
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t fnv1a64_extend(std::uint64_t hash, std::int64_t value) noexcept {
  char digits[20];  // a sign and 19 digits: any int64
  const std::to_chars_result written =
      std::to_chars(digits, digits + sizeof digits, value);
  return fnv1a64_extend(
      hash, std::string_view(digits, static_cast<std::size_t>(
                                         written.ptr - digits)));
}

std::uint64_t fnv1a64_extend_fixed(std::uint64_t hash, double value) noexcept {
  // An integral value below 2^53 (every bwtest knob) prints as its sign,
  // its integer digits and ".000000": hash those without the formatter.
  // The sign comes from the bit, so -0.0 stays "-0.000000".
  const double magnitude = std::fabs(value);
  if (magnitude < 0x1p53) {
    const auto integral = static_cast<std::int64_t>(magnitude);
    if (static_cast<double>(integral) == magnitude) {
      if (std::signbit(value)) hash = fnv1a64_extend(hash, "-");
      return fnv1a64_extend(fnv1a64_extend(hash, integral), ".000000");
    }
  }
  // A sign, the 309 integer digits of DBL_MAX, the point and six decimals.
  char text[320];
  const std::to_chars_result written = std::to_chars(
      text, text + sizeof text, value, std::chars_format::fixed, 6);
  return fnv1a64_extend(
      hash, std::string_view(text, static_cast<std::size_t>(
                                       written.ptr - text)));
}

Rng::Rng(std::uint64_t seed) noexcept {
  // Expand the seed with splitmix64, per the xoshiro authors' guidance;
  // guards against the all-zero state.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::string_view label) const noexcept {
  return fork_hashed(fnv1a64(label));
}

Rng Rng::fork_hashed(std::uint64_t label_hash) const noexcept {
  std::uint64_t mix = s_[0] ^ rotl(s_[3], 17) ^ label_hash;
  return Rng(splitmix64(mix));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  // Unbiased rejection sampling (Lemire-style threshold).
  const std::uint64_t threshold = (~range + 1) % range;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return lo + static_cast<std::int64_t>(r % range);
  }
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) noexcept {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::pareto(double xm, double alpha) noexcept {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

}  // namespace upin::util
