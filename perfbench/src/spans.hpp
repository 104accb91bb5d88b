// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own code around calls into the library (a step, a next(), a
// tick, an open()); nesting comes from an explicit open-span stack, so a
// span's parent is whatever span was open on the same thread when it began.
// Self time is a span's duration minus the part its children cover.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

namespace pb {

enum class Kind : std::uint8_t {
  SubmitStream,  ///< BatchSystem::submit_stream (initial window fill)
  Step,          ///< Simulator::step() that ran no scheduler iteration
  Iterate,       ///< Simulator::step() during which iterations() advanced
  Next,          ///< SubmissionSource::next() (SWF parse)
  Push,          ///< IngestQueue::submit()
  Tick,          ///< ServiceLoop::tick()
  Idle,          ///< the service loop's wait for the next queued record
  Open,          ///< ServiceLoop::open() on a fresh state dir
  Recover,       ///< ServiceLoop::open() replaying the full WAL
  Count
};
inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::Count);

struct Span {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  /// Correlation id: the record ticket for pushes and ticks (a tick carries
  /// the first ticket it made durable), the call index for next().
  std::uint32_t id = 0;
  std::uint32_t id_end = 0;  ///< Tick: one past the last ticket acked
  std::uint32_t parent = kNoParent;
  Kind kind = Kind::Step;

  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] std::uint64_t dur() const { return end_ns - begin_ns; }
};

/// Per-kind totals over one thread's spans.
struct KindTotals {
  std::array<std::uint64_t, kKinds> self_ns{};
  std::array<std::uint64_t, kKinds> total_ns{};
};

/// One thread's spans. Not thread-safe: each thread owns its own log.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}

  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Opens a span now, nested under the innermost open span.
  std::uint32_t open(Kind kind, std::uint32_t id = 0);
  /// Closes the innermost open span (which must be `index`) now. Scoped
  /// spans close in reverse order of opening, which this relies on.
  void close(std::uint32_t index) noexcept;
  /// Drops the innermost open span, which must be the last one recorded.
  void discard(std::uint32_t index);
  Span& at(std::uint32_t index) { return spans_[index]; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  /// Self and total time per kind; self = duration minus direct children.
  [[nodiscard]] KindTotals totals() const;
  /// Durations (µs) of every span of `kind`.
  [[nodiscard]] std::vector<double> durations_us(Kind kind) const;
  /// Sum of the durations of the top-level spans (no parent).
  [[nodiscard]] std::uint64_t top_level_ns() const;

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Records one span on `log` for the enclosing scope; a null log records
/// nothing, so untraced code paths share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Kind kind, std::uint32_t id = 0)
      : log_(log), index_(log != nullptr ? log->open(kind, id) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_ids(std::uint32_t id, std::uint32_t id_end = 0) {
    if (log_ == nullptr) return;
    log_->at(index_).id = id;
    log_->at(index_).id_end = id_end;
  }

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

/// Writes the logs as Chrome trace-event JSON (loads in Perfetto and
/// chrome://tracing): one complete ("X") event per span, the span's layer as
/// its category and its id in args. At most `max_events` spans are written,
/// earliest first; the count left out is recorded in the metadata.
void write_chrome_trace(std::ostream& os, const std::vector<const SpanLog*>& logs,
                        std::uint64_t origin_ns, std::size_t max_events);

}  // namespace pb
