// isd_asn.hpp — SCION addressing: ISD-AS numbers and host addresses.
//
// SCION identifies an AS by the pair <ISD>-<ASN>, where the ASN is
// rendered in BGP-style decimal below 2^32 and in colon-grouped hex
// ("ffaa:0:1002") above.  A full host address adds the host IP:
// "16-ffaa:0:1002,[172.31.43.7]" — the exact format the paper's test
// suite passes to `scion ping` and friends.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "util/result.hpp"

namespace upin::scion {

/// An ISD-AS identifier.
class IsdAsn {
 public:
  constexpr IsdAsn() = default;
  constexpr IsdAsn(std::uint16_t isd, std::uint64_t asn) noexcept
      : isd_(isd), asn_(asn) {}

  [[nodiscard]] constexpr std::uint16_t isd() const noexcept { return isd_; }
  [[nodiscard]] constexpr std::uint64_t asn() const noexcept { return asn_; }

  /// True for the default-constructed wildcard (0-0).
  [[nodiscard]] constexpr bool is_wildcard() const noexcept {
    return isd_ == 0 && asn_ == 0;
  }

  /// Longest text form: a 5-digit ISD, '-' and three 4-digit hex groups.
  static constexpr std::size_t kMaxTextSize = 20;

  /// "16-ffaa:0:1002" (hex grouping for ASNs >= 2^32, decimal otherwise).
  [[nodiscard]] std::string to_string() const;
  /// Append the to_string() text to `out`.
  void append_to(std::string& out) const;

  /// Parse "16-ffaa:0:1002" or "16-64512".
  [[nodiscard]] static util::Result<IsdAsn> parse(std::string_view text);

  friend constexpr auto operator<=>(const IsdAsn&, const IsdAsn&) = default;

 private:
  std::uint16_t isd_ = 0;
  std::uint64_t asn_ = 0;
};

/// Build a colon-grouped hex ASN of the "ffaa:x:y" family used by
/// SCIONLab: ffaa:0:z for infrastructure ASes, ffaa:1:z for user ASes.
[[nodiscard]] constexpr std::uint64_t make_asn(std::uint16_t group,
                                               std::uint16_t low) noexcept {
  return (0xffaaULL << 32) | (static_cast<std::uint64_t>(group) << 16) | low;
}

/// A SCION host address: ISD-AS plus host IP.
struct SnetAddress {
  IsdAsn ia;
  std::string host;  ///< textual IPv4/IPv6 address

  /// "16-ffaa:0:1002,[172.31.43.7]"
  [[nodiscard]] std::string to_string() const;

  /// Parse "16-ffaa:0:1002,[172.31.43.7]" (brackets required).
  [[nodiscard]] static util::Result<SnetAddress> parse(std::string_view text);

  friend bool operator==(const SnetAddress&, const SnetAddress&) = default;
};

}  // namespace upin::scion

template <>
struct std::hash<upin::scion::IsdAsn> {
  std::size_t operator()(const upin::scion::IsdAsn& ia) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(ia.isd()) << 48) ^ ia.asn());
  }
};

namespace upin::scion {

/// A (src, dst) AS pair: the key of path-cache entries and lookup memos.
using AsPair = std::pair<IsdAsn, IsdAsn>;

struct AsPairHash {
  std::size_t operator()(const AsPair& pair) const noexcept {
    const std::size_t src = std::hash<IsdAsn>{}(pair.first);
    return src ^ (std::hash<IsdAsn>{}(pair.second) + 0x9e3779b97f4a7c15ULL +
                  (src << 6) + (src >> 2));
  }
};

}  // namespace upin::scion
