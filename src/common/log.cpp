#include "common/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace dbs::logging {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Off};

// Simulators register/unregister concurrently when shards run on a thread
// pool; the mutex also pins the owner alive for the duration of an emit()
// (unregister_sim_clock blocks until the callback returns).
std::mutex g_clock_mutex;
const void* g_clock_owner = nullptr;       // guarded by g_clock_mutex
Time (*g_clock_now)(const void*) = nullptr;  // guarded by g_clock_mutex

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

void register_sim_clock(const void* owner, Time (*now)(const void* owner)) {
  const std::lock_guard<std::mutex> lock(g_clock_mutex);
  g_clock_owner = owner;
  g_clock_now = now;
}

void unregister_sim_clock(const void* owner) {
  const std::lock_guard<std::mutex> lock(g_clock_mutex);
  if (g_clock_owner != owner) return;
  g_clock_owner = nullptr;
  g_clock_now = nullptr;
}

void emit(LogLevel lvl, const std::string& msg) {
  const std::lock_guard<std::mutex> lock(g_clock_mutex);
  std::cerr << prefix(lvl);
  if (g_clock_now != nullptr)
    std::cerr << '[' << g_clock_now(g_clock_owner).to_string() << "] ";
  std::cerr << msg << '\n';
}

}  // namespace dbs::logging
