// Differential test of the SCION address text: IsdAsn::to_string/parse
// and Path::sequence/parse_sequence against reference implementations
// built on util::format, std::to_string and util::split (the original
// printf-based code, kept here verbatim in behaviour).  Seeded random
// addresses and paths must format to the same text, and valid and
// mutated malformed strings must parse to the same value or fail with
// the same error code and message.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "scion/isd_asn.hpp"
#include "scion/path.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace upin::scion {
namespace {

using util::ErrorCode;
using util::Result;

// ---------------------------------------------------------- references

std::string reference_to_string(IsdAsn ia) {
  std::string out = std::to_string(ia.isd());
  out.push_back('-');
  if (ia.asn() < (1ULL << 32)) {
    out += std::to_string(ia.asn());
    return out;
  }
  const auto group = [&](int shift) {
    return util::format(
        "%llx", static_cast<unsigned long long>((ia.asn() >> shift) & 0xffff));
  };
  out += group(32);
  out.push_back(':');
  out += group(16);
  out.push_back(':');
  out += group(0);
  return out;
}

Result<IsdAsn> reference_parse(std::string_view text) {
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
  if (asn_text.find(':') == std::string_view::npos) {
    const auto asn = util::parse_uint(asn_text);
    if (!asn.has_value()) {
      return util::Error{ErrorCode::kInvalidArgument, "bad decimal ASN"};
    }
    return IsdAsn(static_cast<std::uint16_t>(*isd), *asn);
  }
  const std::vector<std::string> groups = util::split(asn_text, ':');
  if (groups.size() != 3) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "hex ASN needs three groups"};
  }
  std::uint64_t asn = 0;
  for (const std::string& group : groups) {
    const auto part = util::parse_uint(group, 16);
    if (!part.has_value() || *part > 0xffff) {
      return util::Error{ErrorCode::kInvalidArgument, "bad hex ASN group"};
    }
    asn = (asn << 16) | *part;
  }
  return IsdAsn(static_cast<std::uint16_t>(*isd), asn);
}

std::string reference_sequence(const Path& path) {
  std::string out;
  for (const PathHop& hop : path.hops()) {
    if (!out.empty()) out.push_back(' ');
    out += reference_to_string(hop.ia);
    out.push_back('#');
    out += std::to_string(hop.ingress_if);
    out.push_back(',');
    out += std::to_string(hop.egress_if);
  }
  return out;
}

Result<std::vector<PathHop>> reference_parse_sequence(std::string_view text) {
  std::vector<PathHop> hops;
  for (const std::string& token : util::split(std::string(text), ' ')) {
    if (token.empty()) continue;
    const std::size_t hash = token.find('#');
    if (hash == std::string::npos) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "hop predicate missing '#': " + token};
    }
    Result<IsdAsn> ia =
        reference_parse(std::string_view(token).substr(0, hash));
    if (!ia.ok()) return ia.error();
    const std::vector<std::string> interfaces =
        util::split(std::string_view(token).substr(hash + 1), ',');
    if (interfaces.size() != 2) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "hop predicate needs <in>,<out>: " + token};
    }
    const auto ingress = util::parse_uint(interfaces[0]);
    const auto egress = util::parse_uint(interfaces[1]);
    if (!ingress.has_value() || !egress.has_value() || *ingress > 0xffff ||
        *egress > 0xffff) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "bad interface id in: " + token};
    }
    hops.push_back(PathHop{ia.value(), static_cast<std::uint16_t>(*ingress),
                           static_cast<std::uint16_t>(*egress)});
  }
  if (hops.size() < 2) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "sequence needs at least two hops"};
  }
  return hops;
}

// ---------------------------------------------------------- generators

constexpr int kCases = 10000;

std::uint16_t random_u16(util::Rng& rng) {
  return static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff));
}

/// A hex group biased towards the 0 and 0xffff edges.
std::uint64_t random_group(util::Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return 0;
    case 1: return 0xffff;
    default: return random_u16(rng);
  }
}

IsdAsn random_isd_asn(util::Rng& rng) {
  const std::uint16_t isd = random_u16(rng);
  switch (rng.uniform_int(0, 3)) {
    case 0:  // decimal, BGP style
      return IsdAsn(isd, static_cast<std::uint64_t>(
                             rng.uniform_int(0, (1LL << 32) - 1)));
    case 1:  // decimal edges
      return IsdAsn(isd, rng.uniform_int(0, 1) == 0 ? 0 : (1ULL << 32) - 1);
    default: {  // colon-grouped hex, top group non-zero
      std::uint64_t top = random_group(rng);
      if (top == 0) {
        top = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 0xfffe));
      }
      return IsdAsn(isd, (top << 32) | (random_group(rng) << 16) |
                             random_group(rng));
    }
  }
}

Path random_path(util::Rng& rng) {
  std::vector<PathHop> hops(static_cast<std::size_t>(rng.uniform_int(2, 8)));
  for (PathHop& hop : hops) {
    hop.ia = random_isd_asn(rng);
    hop.ingress_if = random_u16(rng);
    hop.egress_if = random_u16(rng);
  }
  return Path(std::move(hops), 1400.0, util::SimDuration::zero());
}

/// Replace the first occurrence of `from` at or after a random position
/// (wrapping around) with `to`; unchanged when `from` does not occur.
std::string replace_one(util::Rng& rng, std::string text,
                        std::string_view from, std::string_view to) {
  const auto start = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
  std::size_t at = text.find(from, start);
  if (at == std::string::npos) at = text.find(from);
  if (at == std::string::npos) return text;
  text.replace(at, from.size(), to);
  return text;
}

/// One malformed (or at least unusual) variant of a valid text.
std::string mutate(util::Rng& rng, const std::string& text) {
  switch (rng.uniform_int(0, 13)) {
    case 0: return replace_one(rng, text, "#", "");          // missing '#'
    case 1: return replace_one(rng, text, ",", "");          // missing ','
    case 2: return replace_one(rng, text, ":", "");          // missing group
    case 3: return replace_one(rng, text, ":", ":1:");       // extra group
    case 4: return replace_one(rng, text, ":", ":10000");    // over-range group
    case 5: return replace_one(rng, text, ":", "::");        // empty group
    case 6: return replace_one(rng, text, " ", "  ");        // double space
    case 7: return replace_one(rng, text, "#", "#,");        // extra interface
    case 8: return replace_one(rng, text, ",", ",65536");    // over-range id
    case 9: return replace_one(rng, text, "-", "");          // missing '-'
    case 10: return replace_one(rng, text, "-", "-x");       // bad ASN digit
    case 11: return replace_one(rng, text, " ", "");         // glued hops
    case 12: {  // truncated at a random byte
      const auto keep = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
      return text.substr(0, keep);
    }
    default: {  // a random structural byte inserted anywhere
      static constexpr std::string_view kBytes = "#,:- 0f9+";
      std::string out = text;
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size())));
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kBytes.size()) - 1));
      out.insert(at, 1, kBytes[pick]);
      return out;
    }
  }
}

// ---------------------------------------------------------- comparisons

/// The error kind of a reference result: its message up to the quoted
/// token, or "ok".
template <typename T>
std::string kind_of(const Result<T>& result) {
  if (result.ok()) return "ok";
  const std::string& message = result.error().message;
  return message.substr(0, message.find(':'));
}

/// Compare the parsers on `text`; returns the reference's kind_of.
std::string expect_same_parse(std::string_view text) {
  const Result<IsdAsn> want = reference_parse(text);
  const Result<IsdAsn> got = IsdAsn::parse(text);
  EXPECT_EQ(got.ok(), want.ok()) << '"' << text << '"';
  if (want.ok() && got.ok()) {
    EXPECT_EQ(got.value(), want.value()) << '"' << text << '"';
  } else if (!want.ok() && !got.ok()) {
    EXPECT_EQ(got.error(), want.error()) << '"' << text << '"';
  }
  return kind_of(want);
}

std::string expect_same_parse_sequence(std::string_view text) {
  const Result<std::vector<PathHop>> want = reference_parse_sequence(text);
  const Result<Path> got = Path::parse_sequence(text);
  EXPECT_EQ(got.ok(), want.ok()) << '"' << text << '"';
  if (want.ok() && got.ok()) {
    EXPECT_EQ(got.value().hops(), want.value()) << '"' << text << '"';
  } else if (!want.ok() && !got.ok()) {
    EXPECT_EQ(got.error(), want.error()) << '"' << text << '"';
  }
  return kind_of(want);
}

TEST(AddressTextOracle, IsdAsnTextMatchesReference) {
  util::Rng rng(0x15d5a);
  for (int i = 0; i < kCases; ++i) {
    const IsdAsn ia = random_isd_asn(rng);
    const std::string want = reference_to_string(ia);
    ASSERT_EQ(ia.to_string(), want);
    std::string appended = "prefix ";
    ia.append_to(appended);
    ASSERT_EQ(appended, "prefix " + want);
    expect_same_parse(want);
  }
  // ASNs at or above 2^48 keep only their low three groups in text.
  for (const std::uint64_t asn : {1ULL << 48, ~0ULL, 0xabcd0000ffffffffULL}) {
    EXPECT_EQ(IsdAsn(7, asn).to_string(), reference_to_string(IsdAsn(7, asn)));
  }
}

TEST(AddressTextOracle, MalformedIsdAsnFailsLikeReference) {
  util::Rng rng(0x15d5b);
  std::set<std::string> kinds;
  for (int i = 0; i < kCases; ++i) {
    const std::string valid = reference_to_string(random_isd_asn(rng));
    kinds.insert(expect_same_parse(mutate(rng, valid)));
  }
  // The mutations reach every rejection of the parser.
  EXPECT_EQ(kinds, (std::set<std::string>{
                       "ok", "ISD-AS must look like <isd>-<asn>",
                       "bad ISD number", "bad decimal ASN",
                       "hex ASN needs three groups", "bad hex ASN group"}));
  for (const std::string_view text :
       {"", "-", "1-", "-1", "65536-1", "1-:", "1-::", "1-a:b:c:d",
        "1-ffaa::1", "1-ffaa:0:10000", "1-FFAA:0:1", "1--1", "1-+1", "+1-1",
        "1-18446744073709551616"}) {
    expect_same_parse(text);
  }
}

TEST(AddressTextOracle, SequenceTextMatchesReference) {
  util::Rng rng(0x15d5c);
  for (int i = 0; i < kCases; ++i) {
    const Path path = random_path(rng);
    const std::string want = reference_sequence(path);
    ASSERT_EQ(path.sequence(), want);
    expect_same_parse_sequence(want);
  }
  // A long path of the widest hops.
  util::Rng long_rng(0x15d5d);
  std::vector<PathHop> hops(40);
  for (PathHop& hop : hops) {
    hop.ia = IsdAsn(0xffff, 0xffffffffffffULL);
    hop.ingress_if = 0xffff;
    hop.egress_if = random_u16(long_rng);
  }
  const Path long_path(std::move(hops), 0.0, util::SimDuration::zero());
  EXPECT_EQ(long_path.sequence(), reference_sequence(long_path));
}

TEST(AddressTextOracle, MalformedSequenceFailsLikeReference) {
  util::Rng rng(0x15d5e);
  std::set<std::string> kinds;
  for (int i = 0; i < kCases; ++i) {
    std::string text = reference_sequence(random_path(rng));
    const int mutations = static_cast<int>(rng.uniform_int(1, 3));
    for (int m = 0; m < mutations; ++m) text = mutate(rng, text);
    kinds.insert(expect_same_parse_sequence(text));
  }
  EXPECT_EQ(kinds, (std::set<std::string>{
                       "ok", "ISD-AS must look like <isd>-<asn>",
                       "bad ISD number", "bad decimal ASN",
                       "hex ASN needs three groups", "bad hex ASN group",
                       "hop predicate missing '#'",
                       "hop predicate needs <in>,<out>",
                       "bad interface id in",
                       "sequence needs at least two hops"}));
  for (const std::string_view text :
       {"", " ", "1-1#0,1", "1-1#0,1  2-2#1,0", " 1-1#0,1 2-2#1,0 ",
        "1-1#0,1 2-2#1", "1-1#0,1 2-2#,0", "1-1#0,1 2-2#1,0,",
        "1-1#0,1 2-2##1,0", "1-1#0,1\t2-2#1,0", "1-1#0,65536 2-2#1,0",
        "1-1#-0,1 2-2#1,0"}) {
    expect_same_parse_sequence(text);
  }
}

}  // namespace
}  // namespace upin::scion
