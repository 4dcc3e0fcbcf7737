#include "obs/log.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <vector>

#include "util/env.hpp"

namespace vppb::obs {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool parse_log_level(std::string_view s, LogLevel* out) {
  if (s == "trace") { *out = LogLevel::kTrace; return true; }
  if (s == "debug") { *out = LogLevel::kDebug; return true; }
  if (s == "info") { *out = LogLevel::kInfo; return true; }
  if (s == "warn") { *out = LogLevel::kWarn; return true; }
  if (s == "error") { *out = LogLevel::kError; return true; }
  if (s == "off") { *out = LogLevel::kOff; return true; }
  return false;
}

bool parse_log_spec(std::string_view s, LogSpec* out) {
  LogSpec spec;
  std::string_view level_part = s;
  const std::size_t colon = s.find(':');
  if (colon != std::string_view::npos) {
    level_part = s.substr(0, colon);
    const std::string_view fmt = s.substr(colon + 1);
    if (fmt == "json") {
      spec.json = true;
    } else if (fmt != "text") {
      return false;
    }
  }
  if (!parse_log_level(level_part, &spec.level)) return false;
  *out = spec;
  return true;
}

Logger::Logger() {
  const std::string env = util::env_or("VPPB_LOG", "");
  if (!env.empty()) {
    LogSpec spec;
    if (parse_log_spec(env, &spec)) {
      configure(spec);
    } else {
      std::fprintf(stderr, "vppb: ignoring malformed VPPB_LOG=%s\n",
                   env.c_str());
    }
  }
}

Logger& Logger::global() {
  // Leaked: log sites may fire during static destruction.
  static Logger* g = new Logger();
  return *g;
}

void Logger::set_sink(Sink sink) {
  std::lock_guard<std::mutex> lk(sink_mu_);
  sink_ = std::move(sink);
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

void Logger::log(LogLevel level, const char* component, std::string_view msg) {
  if (!enabled(level)) return;
  const auto now = std::chrono::system_clock::now();
  const double unix_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          now.time_since_epoch())
          .count();
  std::string line;
  if (json()) {
    char head[64];
    std::snprintf(head, sizeof(head), "{\"ts\":%.3f,\"level\":\"", unix_s);
    line += head;
    line += to_string(level);
    line += "\",\"component\":\"";
    append_json_escaped(line, component);
    line += "\",\"msg\":\"";
    append_json_escaped(line, msg);
    line += "\"}";
  } else {
    const std::time_t secs = std::chrono::system_clock::to_time_t(now);
    std::tm tm{};
    localtime_r(&secs, &tm);
    const int ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now.time_since_epoch())
            .count() %
        1000);
    char head[64];
    std::snprintf(head, sizeof(head), "%02d:%02d:%02d.%03d %-5s ", tm.tm_hour,
                  tm.tm_min, tm.tm_sec, ms, to_string(level));
    line += head;
    line += component;
    line += ": ";
    line += msg;
  }
  std::lock_guard<std::mutex> lk(sink_mu_);
  if (sink_) {
    sink_(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

void Logger::vlogf(LogLevel level, const char* component, const char* fmt,
                   std::va_list ap) {
  if (!enabled(level)) return;
  char stack_buf[512];
  std::va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, ap);
  if (n < 0) {
    va_end(ap2);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof(stack_buf)) {
    va_end(ap2);
    log(level, component, std::string_view(stack_buf, n));
    return;
  }
  std::vector<char> big(static_cast<std::size_t>(n) + 1);
  std::vsnprintf(big.data(), big.size(), fmt, ap2);
  va_end(ap2);
  log(level, component, std::string_view(big.data(), n));
}

void logf(LogLevel level, const char* component, const char* fmt, ...) {
  Logger& lg = Logger::global();
  if (!lg.enabled(level)) return;
  std::va_list ap;
  va_start(ap, fmt);
  lg.vlogf(level, component, fmt, ap);
  va_end(ap);
}

}  // namespace vppb::obs
