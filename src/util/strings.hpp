// strings.hpp — small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace upin::util {

/// Split on a single character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Join parts with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix) noexcept;

/// Parse a signed 64-bit decimal integer; nullopt on any deviation.
[[nodiscard]] std::optional<std::int64_t> parse_int(std::string_view text) noexcept;

/// Parse an unsigned 64-bit integer in the given base (10 or 16).
[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view text,
                                                      int base = 10) noexcept;

/// Parse a double; nullopt on any deviation.
[[nodiscard]] std::optional<double> parse_double(std::string_view text) noexcept;

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace upin::util
