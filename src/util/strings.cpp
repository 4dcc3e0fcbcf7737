#include "util/strings.hpp"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vppb {

std::vector<std::string_view> split(std::string_view s, char sep,
                                    bool keep_empty) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t pos = s.find(sep, start);
    const std::size_t end = pos == std::string_view::npos ? s.size() : pos;
    std::string_view field = s.substr(start, end - start);
    if (keep_empty || !field.empty()) out.push_back(field);
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  const char* ws = " \t\r\n";
  const std::size_t b = s.find_first_not_of(ws);
  if (b == std::string_view::npos) return {};
  const std::size_t e = s.find_last_not_of(ws);
  return s.substr(b, e - b + 1);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

namespace {

// string_views are not NUL-terminated; copy into a small buffer for strto*.
bool to_cstr(std::string_view s, char* buf, std::size_t cap) {
  if (s.empty() || s.size() >= cap) return false;
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  return true;
}

}  // namespace

bool parse_i64(std::string_view s, std::int64_t& out) {
  // Parsed in place.  Accepted: fewer than 64 characters; leading
  // C-locale whitespace; one optional sign; decimal digits whose value
  // fits in 64 bits; then the end of `s`, or a NUL, which ends the
  // number as it ends a C string.  These are exactly the inputs strtoll
  // (base 10) accepts of a NUL-terminated copy of `s`.
  if (s.empty() || s.size() >= 64) return false;
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p != end && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
  bool negative = false;
  if (p != end && (*p == '+' || *p == '-')) negative = *p++ == '-';
  const std::uint64_t limit =
      (std::uint64_t{1} << 63) - (negative ? 0 : 1);
  const char* const digits = p;
  std::uint64_t v = 0;
  for (; p != end && *p >= '0' && *p <= '9'; ++p) {
    const auto d = static_cast<std::uint64_t>(*p - '0');
    if (v > (limit - d) / 10) return false;
    v = v * 10 + d;
  }
  if (p == digits || (p != end && *p != '\0')) return false;
  out = static_cast<std::int64_t>(negative ? 0 - v : v);
  return true;
}

bool parse_double(std::string_view s, double& out) {
  char buf[64];
  if (!to_cstr(s, buf, sizeof buf)) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (errno != 0 || end == buf || *end != '\0') return false;
  out = v;
  return true;
}

std::string strprintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

}  // namespace vppb
