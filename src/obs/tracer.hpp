// Structured event tracer for the scheduler and the RMS layer.
//
// Components publish TraceEvents (a timestamp, a category, a name and a
// flat list of typed fields) to one Tracer; the tracer streams them to the
// attached sink in either JSONL (one JSON object per line, grep-friendly)
// or Chrome trace-event format (loadable in chrome://tracing / Perfetto).
//
// Discipline for emission sites (same as DBS_LOG): check `enabled()` —
// via the DBS_TRACE_EVENT macro — *before* building the event, so a
// detached tracer costs one pointer test and nothing else:
//
//   DBS_TRACE_EVENT(tracer_, obs::TraceEvent(tracer_->now(), "sched",
//                   "dyn_grant")
//                       .field("job", job.id().value())
//                       .field_json("delays", delays_json));
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/time.hpp"

namespace dbs::obs {

/// One key/value pair attached to an event. Values are typed so sinks can
/// emit proper JSON numbers/booleans; Json carries a preformatted JSON
/// fragment (e.g. a nested array of per-job delays) verbatim.
struct TraceField {
  enum class Kind { Int, Double, Bool, Str, Json };
  std::string key;
  Kind kind = Kind::Int;
  std::int64_t i = 0;
  double d = 0.0;
  bool b = false;
  std::string s;
};

struct TraceEvent {
  TraceEvent(Time at_, std::string_view cat_, std::string_view name_)
      : at(at_), cat(cat_), name(name_) {}

  Time at;                ///< simulated time of the event
  std::string_view cat;   ///< component ("sched", "dfs", "rms", "mom", ...)
  std::string_view name;  ///< event type within the category
  /// Simulated duration for span events (< 0: instantaneous).
  std::int64_t dur_us = -1;
  std::vector<TraceField> fields;

  TraceEvent& field(std::string key, std::int64_t v) &;
  /// Any other integer type narrows/widens to int64.
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  TraceEvent& field(std::string key, T v) & {
    return field(std::move(key), static_cast<std::int64_t>(v));
  }
  TraceEvent& field(std::string key, double v) &;
  TraceEvent& field(std::string key, bool v) &;
  TraceEvent& field(std::string key, std::string_view v) &;
  /// Without this overload a string literal would convert to bool (a
  /// standard conversion) rather than string_view (user-defined).
  TraceEvent& field(std::string key, const char* v) & {
    return field(std::move(key), std::string_view(v));
  }
  /// Attaches a preformatted JSON fragment (array/object) verbatim.
  TraceEvent& field_json(std::string key, std::string json) &;
  TraceEvent& duration(Duration d) &;

  // rvalue overloads so the builder chain works on temporaries.
  template <class T>
  TraceEvent&& field(std::string key, T v) && {
    field(std::move(key), v);
    return std::move(*this);
  }
  TraceEvent&& field_json(std::string key, std::string json) && {
    field_json(std::move(key), std::move(json));
    return std::move(*this);
  }
  TraceEvent&& duration(Duration d) && {
    duration(d);
    return std::move(*this);
  }
};

enum class TraceFormat { Jsonl, Chrome };

class Tracer {
 public:
  Tracer() = default;
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens `path` and attaches it as the sink. Returns false if the file
  /// cannot be created (tracer stays disabled).
  bool open(const std::string& path, TraceFormat format);

  /// Attaches a caller-owned stream (tests). The stream must outlive the
  /// tracer or a close() call.
  void attach_stream(std::ostream& os, TraceFormat format);

  /// Flushes and finalizes the sink (closes the Chrome JSON array).
  /// Harmless if nothing is attached.
  void close();

  /// Drains the internal event buffer to the sink and syncs it. Events
  /// are buffered (not one stream write per event) so multi-million-event
  /// traces don't pay a syscall each; call this at quiescent points
  /// (simulation end, recorder finalize) to make the trace durable
  /// without closing the sink. Harmless if nothing is attached.
  void flush();

  /// True while a sink is attached — the emission guard.
  [[nodiscard]] bool enabled() const { return out_ != nullptr; }

  /// Simulated-clock source for `now()`; wired by the owning system.
  void set_clock(std::function<Time()> clock) { clock_ = std::move(clock); }
  [[nodiscard]] Time now() const {
    return clock_ ? clock_() : Time::epoch();
  }

  void emit(const TraceEvent& ev);

  [[nodiscard]] std::uint64_t events_emitted() const { return emitted_; }

 private:
  void write_jsonl(const TraceEvent& ev);
  void write_chrome(const TraceEvent& ev);
  void close_locked();
  /// Moves the buffer's contents to the sink; `sync` also flushes the
  /// underlying stream. Caller holds emit_mutex_.
  void drain_locked(bool sync);

  /// Serializes emit()/close() across threads: concurrent emitters write
  /// whole events, never interleaved fragments. enabled() stays a plain
  /// read — sinks are attached before, and detached after, any parallel
  /// region.
  std::mutex emit_mutex_;
  std::ostream* out_ = nullptr;       ///< active sink (owned_ or external)
  std::unique_ptr<std::ostream> owned_;
  std::string buffer_;                ///< pending bytes not yet in out_
  TraceFormat format_ = TraceFormat::Jsonl;
  std::function<Time()> clock_;
  std::uint64_t emitted_ = 0;
  bool chrome_open_ = false;  ///< Chrome array header written, "]" pending
};

}  // namespace dbs::obs

/// Emission guard: evaluates the event expression only when `tracer_ptr`
/// is attached to a sink, mirroring DBS_LOG's level check.
#define DBS_TRACE_EVENT(tracer_ptr, ...)                          \
  do {                                                            \
    ::dbs::obs::Tracer* dbs_tr_ = (tracer_ptr);                   \
    if (dbs_tr_ != nullptr && dbs_tr_->enabled())                 \
      dbs_tr_->emit(__VA_ARGS__);                                 \
  } while (0)
