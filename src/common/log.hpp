// Minimal leveled logger. Warnings reach stderr by default and the rest is
// silent; tests and examples can raise the level to trace scheduler
// decisions (each trace line names its simulated time), and the
// DBS_LOG_LEVEL environment variable (trace|debug|info|warn|off) sets the
// initial level without touching code.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace dbs {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Off = 4 };

namespace logging {
/// Global threshold; messages below it are discarded.
void set_level(LogLevel level);
[[nodiscard]] LogLevel level();
/// Emits one line to stderr with a level prefix.
void emit(LogLevel level, const std::string& msg);

/// Parses a level name ("trace", "debug", "info", "warn"/"warning",
/// "off"/"none"), case-insensitively. nullopt on anything else.
[[nodiscard]] std::optional<LogLevel> parse_level(std::string_view text);

/// Re-reads DBS_LOG_LEVEL and applies it (unknown/unset values leave the
/// level untouched). Called once automatically before main(); exposed for
/// tests.
void init_from_env();
}  // namespace logging

}  // namespace dbs

#define DBS_LOG(lvl, expr)                                                   \
  do {                                                                       \
    if (static_cast<int>(lvl) >= static_cast<int>(::dbs::logging::level())) {\
      std::ostringstream dbs_log_os_;                                        \
      dbs_log_os_ << expr;                                                   \
      ::dbs::logging::emit(lvl, dbs_log_os_.str());                          \
    }                                                                        \
  } while (0)

#define DBS_TRACE(expr) DBS_LOG(::dbs::LogLevel::Trace, expr)
#define DBS_DEBUG(expr) DBS_LOG(::dbs::LogLevel::Debug, expr)
#define DBS_INFO(expr) DBS_LOG(::dbs::LogLevel::Info, expr)
#define DBS_WARN(expr) DBS_LOG(::dbs::LogLevel::Warn, expr)
