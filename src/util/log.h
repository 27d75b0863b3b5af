#pragma once

/// \file log.h
/// Minimal leveled logger. Messages are composed with `operator<<` into a
/// per-call stream, so there is zero formatting cost when the level is
/// disabled. The sink is thread-safe: each line is formatted off-lock and
/// written to stderr as a single mutex-guarded write, so lines from
/// concurrent campaign workers never interleave mid-line.
///
/// The initial level comes from the `VANET_LOG` environment variable
/// (error|warn|info|debug|trace; default warn); every binary that
/// accepts `--log-level=LEVEL` applies it through applyLogLevelFlag()
/// (util/flags.h), and it wins over the environment.

#include <atomic>
#include <sstream>
#include <string>

namespace vanet {

/// Severity levels, ordered from most to least severe.
enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3, kTrace = 4 };

/// Global logging configuration and sink.
class Log {
 public:
  /// Sets the most verbose level that will be emitted.
  static void setLevel(LogLevel level) noexcept {
    level_.store(level, std::memory_order_relaxed);
  }
  static LogLevel level() noexcept {
    return level_.load(std::memory_order_relaxed);
  }
  static bool enabled(LogLevel level) noexcept { return level <= Log::level(); }

  /// Parses a level name ("error", "warn", "info", "debug", "trace",
  /// case-sensitive). Returns false (and leaves the level untouched) on
  /// an unknown name.
  static bool setLevelFromName(const std::string& name) noexcept;

  /// Emits one formatted line to stderr. Used by the LOG_* macros.
  /// Thread-safe: one locked write per line.
  static void write(LogLevel level, const std::string& message);

  /// Returns the short tag ("E", "W", ...) for a level.
  static const char* tag(LogLevel level) noexcept;

 private:
  static std::atomic<LogLevel> level_;
};

}  // namespace vanet

#define VANET_LOG_AT(level, expr)                         \
  do {                                                    \
    if (::vanet::Log::enabled(level)) {                   \
      std::ostringstream vanet_log_oss_;                  \
      vanet_log_oss_ << expr;                             \
      ::vanet::Log::write(level, vanet_log_oss_.str());   \
    }                                                     \
  } while (false)

#define LOG_ERROR(expr) VANET_LOG_AT(::vanet::LogLevel::kError, expr)
#define LOG_WARN(expr) VANET_LOG_AT(::vanet::LogLevel::kWarn, expr)
#define LOG_INFO(expr) VANET_LOG_AT(::vanet::LogLevel::kInfo, expr)
#define LOG_DEBUG(expr) VANET_LOG_AT(::vanet::LogLevel::kDebug, expr)
#define LOG_TRACE(expr) VANET_LOG_AT(::vanet::LogLevel::kTrace, expr)
