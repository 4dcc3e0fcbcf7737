// Structured leveled logging with text and JSON sinks.
//
// Replaces the ad-hoc fprintf(stderr, ...) scattered through the CLI
// and server.  One process-wide Logger; every line carries a level and
// a component tag.  Level checks are a relaxed atomic load, so
// disabled log sites cost a load and a branch.
//
// Configuration comes from the VPPB_LOG environment variable
// (`level[:json]`, e.g. "debug" or "info:json"; see util/env.hpp) and
// can be overridden by the `--log-level` / `--log-json` CLI flags.
//
// Text lines:   `HH:MM:SS.mmm LEVEL component: message`
// JSON lines:   `{"ts":<unix seconds>,"level":"info","component":"x",
//                 "msg":"..."}` — one object per line, strings escaped.
#pragma once

#include <atomic>
#include <cstdarg>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace vppb::obs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

const char* to_string(LogLevel level);

/// Parses "trace" / "debug" / "info" / "warn" / "error" / "off"
/// (case-sensitive).  Returns false on anything else.
bool parse_log_level(std::string_view s, LogLevel* out);

/// A VPPB_LOG value: `level[:json]`.
struct LogSpec {
  LogLevel level = LogLevel::kInfo;
  bool json = false;
};

/// Parses `level[:json]` (`:text` is also accepted for symmetry).
/// Returns false — leaving *out untouched — on a malformed spec.
bool parse_log_spec(std::string_view s, LogSpec* out);

class Logger {
 public:
  /// Receives one fully formatted line, without the trailing newline.
  using Sink = std::function<void(std::string_view line)>;

  /// The process-wide logger.  First use reads VPPB_LOG; a malformed
  /// value falls back to the defaults (info, text, stderr).
  static Logger& global();

  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  bool json() const { return json_.load(std::memory_order_relaxed); }
  void set_json(bool json) { json_.store(json, std::memory_order_relaxed); }
  void configure(const LogSpec& spec) {
    set_level(spec.level);
    set_json(spec.json);
  }

  /// Replaces the output sink (tests capture lines this way); an empty
  /// function restores the default stderr sink.  Sink calls are
  /// serialized by the logger.
  void set_sink(Sink sink);

  bool enabled(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }

  void log(LogLevel level, const char* component, std::string_view msg);
  void vlogf(LogLevel level, const char* component, const char* fmt,
             std::va_list ap);

 private:
  Logger();

  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  std::atomic<bool> json_{false};
  std::mutex sink_mu_;
  Sink sink_;  // empty = stderr
};

/// printf-style log through Logger::global(); returns immediately when
/// the level is disabled.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 3, 4)))
#endif
void logf(LogLevel level, const char* component, const char* fmt, ...);

/// Appends `s` escaped for the inside of a JSON string: `"` and `\`
/// get a backslash; newline, carriage return and tab become `\n`, `\r`
/// and `\t`; other bytes below 0x20 become `\u00XX`; every other byte
/// (UTF-8 included) is copied as is.  The JSON log sink, the Chrome
/// trace export and `vppb trace-collect` all escape with it.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace vppb::obs
