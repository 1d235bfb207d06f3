// sha256.hpp — from-scratch SHA-256 (FIPS 180-4).
//
// Used by the trust layer (Lamport one-time signatures) that gates
// write access to the measurement database — the PKC design the paper
// specifies in §4.2.2 but leaves unimplemented.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace upin::util {

/// A 256-bit digest.
using Digest256 = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() noexcept;

  /// Absorb bytes.  May be called repeatedly.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view text) noexcept;

  /// Finalize and return the digest.  The hasher must not be reused
  /// afterwards without re-construction.
  [[nodiscard]] Digest256 finish() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static Digest256 hash(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] static Digest256 hash(std::string_view text) noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Lowercase hex encoding of a digest.
[[nodiscard]] std::string to_hex(const Digest256& digest);

/// Lowercase hex encoding of arbitrary bytes.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> bytes);

}  // namespace upin::util
