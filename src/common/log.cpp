#include "common/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace dbs::logging {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};

// Shards log from their own threads; one line is written whole.
std::mutex g_emit_mutex;

const char* prefix(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "[trace] ";
    case LogLevel::Debug: return "[debug] ";
    case LogLevel::Info:  return "[info ] ";
    case LogLevel::Warn:  return "[warn ] ";
    case LogLevel::Off:   return "";
  }
  return "";
}

/// Applies DBS_LOG_LEVEL once during static initialization.
[[maybe_unused]] const bool g_env_applied = [] {
  init_from_env();
  return true;
}();

}  // namespace

void set_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel level() { return g_level.load(std::memory_order_relaxed); }

std::optional<LogLevel> parse_level(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text)
    lower.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  if (lower == "trace") return LogLevel::Trace;
  if (lower == "debug") return LogLevel::Debug;
  if (lower == "info") return LogLevel::Info;
  if (lower == "warn" || lower == "warning") return LogLevel::Warn;
  if (lower == "off" || lower == "none") return LogLevel::Off;
  return std::nullopt;
}

void init_from_env() {
  const char* env = std::getenv("DBS_LOG_LEVEL");
  if (env == nullptr) return;
  if (const std::optional<LogLevel> parsed = parse_level(env))
    set_level(*parsed);
}

void emit(LogLevel lvl, const std::string& msg) {
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::cerr << prefix(lvl) << msg << '\n';
}

}  // namespace dbs::logging
