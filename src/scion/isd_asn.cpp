#include "scion/isd_asn.hpp"

#include <charconv>

#include "util/strings.hpp"

namespace upin::scion {

using util::ErrorCode;
using util::Result;

namespace {

/// Write the text of `ia` to `out`, which has room for
/// IsdAsn::kMaxTextSize bytes; returns one past the last byte written.
/// Each field is bounded by its widest text: 5 digits of ISD, 10 digits
/// of decimal ASN, 4 digits per hex group.
char* write_text(IsdAsn ia, char* out) noexcept {
  out = std::to_chars(out, out + 5, ia.isd()).ptr;
  *out++ = '-';
  const std::uint64_t asn = ia.asn();
  if (asn < (1ULL << 32)) return std::to_chars(out, out + 10, asn).ptr;
  // Three colon-separated 16-bit hex groups, SCION style (no padding).
  out = std::to_chars(out, out + 4, (asn >> 32) & 0xffff, 16).ptr;
  *out++ = ':';
  out = std::to_chars(out, out + 4, (asn >> 16) & 0xffff, 16).ptr;
  *out++ = ':';
  return std::to_chars(out, out + 4, asn & 0xffff, 16).ptr;
}

}  // namespace

void IsdAsn::append_to(std::string& out) const {
  char buffer[kMaxTextSize];
  out.append(buffer, write_text(*this, buffer));
}

std::string IsdAsn::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

Result<IsdAsn> IsdAsn::parse(std::string_view text) {
  const std::size_t dash = text.find('-');
  if (dash == std::string_view::npos) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "ISD-AS must look like <isd>-<asn>"};
  }
  const auto isd = util::parse_uint(text.substr(0, dash));
  if (!isd.has_value() || *isd > 0xffff) {
    return util::Error{ErrorCode::kInvalidArgument, "bad ISD number"};
  }
  const std::string_view asn_text = text.substr(dash + 1);
  const std::size_t first = asn_text.find(':');
  if (first == std::string_view::npos) {
    const auto asn = util::parse_uint(asn_text);
    if (!asn.has_value()) {
      return util::Error{ErrorCode::kInvalidArgument, "bad decimal ASN"};
    }
    return IsdAsn(static_cast<std::uint16_t>(*isd), *asn);
  }
  const std::size_t second = asn_text.find(':', first + 1);
  if (second == std::string_view::npos ||
      asn_text.find(':', second + 1) != std::string_view::npos) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "hex ASN needs three groups"};
  }
  const std::string_view groups[] = {
      asn_text.substr(0, first), asn_text.substr(first + 1, second - first - 1),
      asn_text.substr(second + 1)};
  std::uint64_t asn = 0;
  for (const std::string_view group : groups) {
    const auto part = util::parse_uint(group, 16);
    if (!part.has_value() || *part > 0xffff) {
      return util::Error{ErrorCode::kInvalidArgument, "bad hex ASN group"};
    }
    asn = (asn << 16) | *part;
  }
  return IsdAsn(static_cast<std::uint16_t>(*isd), asn);
}

std::string SnetAddress::to_string() const {
  return ia.to_string() + ",[" + host + "]";
}

Result<SnetAddress> SnetAddress::parse(std::string_view text) {
  const std::size_t comma = text.find(',');
  if (comma == std::string_view::npos) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "address must look like <isd-as>,[<host>]"};
  }
  Result<IsdAsn> ia = IsdAsn::parse(util::trim(text.substr(0, comma)));
  if (!ia.ok()) return Result<SnetAddress>(ia.error());

  std::string_view host = util::trim(text.substr(comma + 1));
  if (host.size() < 3 || host.front() != '[' || host.back() != ']') {
    return util::Error{ErrorCode::kInvalidArgument,
                       "host must be bracketed: [a.b.c.d]"};
  }
  host = host.substr(1, host.size() - 2);
  return SnetAddress{ia.value(), std::string(host)};
}

}  // namespace upin::scion
