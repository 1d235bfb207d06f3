#include "scion/path.hpp"

#include <algorithm>
#include <charconv>

#include "util/strings.hpp"

namespace upin::scion {

using util::ErrorCode;
using util::Result;

std::set<std::uint16_t> Path::isd_set() const {
  std::set<std::uint16_t> isds;
  for (const PathHop& hop : hops_) isds.insert(hop.ia.isd());
  return isds;
}

bool Path::traverses(IsdAsn ia) const noexcept {
  for (const PathHop& hop : hops_) {
    if (hop.ia == ia) return true;
  }
  return false;
}

std::string Path::sequence() const {
  // "<isd-as>#<in>,<out>" and a separating space, at most, per hop.
  constexpr std::size_t kMaxHopText = IsdAsn::kMaxTextSize + 13;
  std::string out;
  out.reserve(hops_.size() * kMaxHopText);
  char id[5];  // "65535"
  for (const PathHop& hop : hops_) {
    if (!out.empty()) out.push_back(' ');
    hop.ia.append_to(out);
    out.push_back('#');
    out.append(id, std::to_chars(id, id + sizeof(id), hop.ingress_if).ptr);
    out.push_back(',');
    out.append(id, std::to_chars(id, id + sizeof(id), hop.egress_if).ptr);
  }
  return out;
}

Result<Path> Path::parse_sequence(std::string_view text) {
  std::vector<PathHop> hops;
  hops.reserve(static_cast<std::size_t>(
                   std::count(text.begin(), text.end(), ' ')) +
               1);
  while (!text.empty()) {
    const std::size_t space = text.find(' ');
    const std::string_view token = text.substr(0, space);
    text.remove_prefix(space == std::string_view::npos ? text.size()
                                                       : space + 1);
    if (token.empty()) continue;
    const std::size_t hash = token.find('#');
    if (hash == std::string_view::npos) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "hop predicate missing '#': " + std::string(token)};
    }
    Result<IsdAsn> ia = IsdAsn::parse(token.substr(0, hash));
    if (!ia.ok()) return Result<Path>(ia.error());
    const std::string_view interfaces = token.substr(hash + 1);
    const std::size_t comma = interfaces.find(',');
    if (comma == std::string_view::npos ||
        interfaces.find(',', comma + 1) != std::string_view::npos) {
      return util::Error{
          ErrorCode::kInvalidArgument,
          "hop predicate needs <in>,<out>: " + std::string(token)};
    }
    const auto ingress = util::parse_uint(interfaces.substr(0, comma));
    const auto egress = util::parse_uint(interfaces.substr(comma + 1));
    if (!ingress.has_value() || !egress.has_value() || *ingress > 0xffff ||
        *egress > 0xffff) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "bad interface id in: " + std::string(token)};
    }
    hops.push_back(PathHop{ia.value(), static_cast<std::uint16_t>(*ingress),
                           static_cast<std::uint16_t>(*egress)});
  }
  if (hops.size() < 2) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "sequence needs at least two hops"};
  }
  return Path(std::move(hops), 0.0, util::SimDuration::zero());
}

std::string Path::to_string() const {
  std::string out;
  for (const PathHop& hop : hops_) {
    if (!out.empty()) out += " > ";
    hop.ia.append_to(out);
  }
  return out;
}

}  // namespace upin::scion
