#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "probe.hpp"

namespace pb {

namespace {

std::string_view kind_name(Kind k) {
  switch (k) {
    case Kind::SubmitStream: return "submit_stream";
    case Kind::Step: return "step";
    case Kind::Iterate: return "step_iterate";
    case Kind::Next: return "next";
    case Kind::Push: return "push";
    case Kind::Tick: return "tick";
    case Kind::Idle: return "idle";
    case Kind::Open: return "open";
    case Kind::Recover: return "recover_open";
    case Kind::Count: break;
  }
  return "?";
}

/// The layer (Chrome category) a span's self time belongs to.
std::string_view kind_layer(Kind k) {
  switch (k) {
    case Kind::SubmitStream:
    case Kind::Step: return "sim_rms";
    case Kind::Iterate: return "core";
    case Kind::Next: return "workload";
    case Kind::Push:
    case Kind::Tick:
    case Kind::Open:
    case Kind::Recover: return "svc";
    case Kind::Idle: return "idle";
    case Kind::Count: break;
  }
  return "?";
}

}  // namespace

std::uint32_t SpanLog::open(Kind kind, std::uint32_t id) {
  Span s;
  s.kind = kind;
  s.id = id;
  s.parent = stack_.empty() ? Span::kNoParent : stack_.back();
  const auto index = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(index);
  spans_.push_back(s);  // a reallocation here is not charged to the span
  spans_.back().begin_ns = now_ns();
  return index;
}

void SpanLog::close(std::uint32_t index) noexcept {
  spans_[index].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanLog::discard(std::uint32_t index) {
  if (stack_.empty() || stack_.back() != index || index + 1 != spans_.size())
    throw std::logic_error("only the newest open span can be discarded");
  stack_.pop_back();
  spans_.pop_back();
}

KindTotals SpanLog::totals() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != Span::kNoParent) child_ns[s.parent] += s.dur();
  KindTotals t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto k = static_cast<std::size_t>(spans_[i].kind);
    const std::uint64_t dur = spans_[i].dur();
    t.total_ns[k] += dur;
    t.self_ns[k] += dur - std::min(dur, child_ns[i]);
  }
  return t;
}

std::vector<double> SpanLog::durations_us(Kind kind) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.kind == kind) out.push_back(static_cast<double>(s.dur()) / 1e3);
  return out;
}

std::uint64_t SpanLog::top_level_ns() const {
  std::uint64_t sum = 0;
  for (const Span& s : spans_)
    if (s.parent == Span::kNoParent) sum += s.dur();
  return sum;
}

void write_chrome_trace(std::ostream& os, const std::vector<const SpanLog*>& logs,
                        std::uint64_t origin_ns, std::size_t max_events) {
  // Merge the per-thread logs by begin time so a cap keeps a contiguous
  // prefix of the run on every thread.
  struct Ref {
    const Span* span;
    std::uint32_t tid;
  };
  std::vector<Ref> refs;
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans()) refs.push_back({&s, log->tid()});
  std::stable_sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.span->begin_ns < b.span->begin_ns;
  });
  const std::size_t kept = std::min(refs.size(), max_events);

  const auto us = [origin_ns](std::uint64_t t) {
    return static_cast<double>(t - std::min(t, origin_ns)) / 1e3;
  };
  char buf[256];
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_total\":"
     << refs.size() << ",\"spans_written\":" << kept << "},\"traceEvents\":[";
  bool first = true;
  for (const SpanLog* log : logs) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", log->tid(),
                  log->tid() == 1 ? "main" : "producer");
    os << buf;
    first = false;
  }
  for (std::size_t i = 0; i < kept; ++i) {
    const Span& s = *refs[i].span;
    const std::string_view name = kind_name(s.kind);
    const std::string_view cat = kind_layer(s.kind);
    if (s.kind == Kind::Tick) {
      std::snprintf(buf, sizeof(buf),
                    ",{\"ph\":\"X\",\"name\":\"%.*s\",\"cat\":\"%.*s\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"ticket\":%u,\"ticket_end\":%u}}",
                    static_cast<int>(name.size()), name.data(),
                    static_cast<int>(cat.size()), cat.data(), us(s.begin_ns),
                    static_cast<double>(s.dur()) / 1e3, refs[i].tid, s.id,
                    s.id_end);
    } else {
      std::snprintf(buf, sizeof(buf),
                    ",{\"ph\":\"X\",\"name\":\"%.*s\",\"cat\":\"%.*s\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"%s\":%u}}",
                    static_cast<int>(name.size()), name.data(),
                    static_cast<int>(cat.size()), cat.data(), us(s.begin_ns),
                    static_cast<double>(s.dur()) / 1e3, refs[i].tid,
                    s.kind == Kind::Push ? "ticket" : "id", s.id);
    }
    os << buf;
  }
  os << "]}\n";
}

}  // namespace pb
