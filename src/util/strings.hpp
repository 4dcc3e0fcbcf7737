// Small string helpers used by the trace reader/writer and CLI layers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vppb {

/// Split `s` on `sep`, dropping empty fields when `keep_empty` is false.
std::vector<std::string_view> split(std::string_view s, char sep,
                                    bool keep_empty = false);

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Parse helpers returning false on malformed input (no exceptions so the
/// trace reader can produce line-numbered diagnostics).
bool parse_i64(std::string_view s, std::int64_t& out);
bool parse_double(std::string_view s, double& out);

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace vppb
