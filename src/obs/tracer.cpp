#include "obs/tracer.hpp"

#include <fstream>
#include <ostream>

#include "obs/json.hpp"

namespace dbs::obs {

TraceEvent& TraceEvent::field(std::string key, std::int64_t v) & {
  fields.push_back({std::move(key), TraceField::Kind::Int, v, 0.0, false, {}});
  return *this;
}

TraceEvent& TraceEvent::field(std::string key, double v) & {
  fields.push_back(
      {std::move(key), TraceField::Kind::Double, 0, v, false, {}});
  return *this;
}

TraceEvent& TraceEvent::field(std::string key, bool v) & {
  fields.push_back({std::move(key), TraceField::Kind::Bool, 0, 0.0, v, {}});
  return *this;
}

TraceEvent& TraceEvent::field(std::string key, std::string_view v) & {
  fields.push_back({std::move(key), TraceField::Kind::Str, 0, 0.0, false,
                    std::string(v)});
  return *this;
}

TraceEvent& TraceEvent::field_json(std::string key, std::string json) & {
  fields.push_back({std::move(key), TraceField::Kind::Json, 0, 0.0, false,
                    std::move(json)});
  return *this;
}

TraceEvent& TraceEvent::duration(Duration d) & {
  dur_us = d.as_micros() < 0 ? 0 : d.as_micros();
  return *this;
}

Tracer::~Tracer() { close(); }

bool Tracer::open(const std::string& path, TraceFormat format) {
  std::lock_guard<std::mutex> lock(emit_mutex_);
  close_locked();
  auto file = std::make_unique<std::ofstream>(path);
  if (!*file) return false;
  owned_ = std::move(file);
  out_ = owned_.get();
  format_ = format;
  return true;
}

void Tracer::attach_stream(std::ostream& os, TraceFormat format) {
  std::lock_guard<std::mutex> lock(emit_mutex_);
  close_locked();
  out_ = &os;
  format_ = format;
}

void Tracer::close() {
  std::lock_guard<std::mutex> lock(emit_mutex_);
  close_locked();
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lock(emit_mutex_);
  drain_locked(/*sync=*/true);
}

void Tracer::drain_locked(bool sync) {
  if (out_ == nullptr) return;
  if (!buffer_.empty()) {
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  if (sync) out_->flush();
}

void Tracer::close_locked() {
  if (out_ != nullptr && format_ == TraceFormat::Chrome && chrome_open_)
    buffer_ += "\n]}\n";
  drain_locked(/*sync=*/true);
  buffer_.clear();  // drop pending bytes of a never-attached sink
  chrome_open_ = false;
  out_ = nullptr;
  owned_.reset();
}

namespace {

/// Events are serialized into the in-memory buffer, not the stream: one
/// stream write per ~256 KiB instead of one per event.
constexpr std::size_t kFlushBytes = 256 * 1024;

void append_field_value(std::string& out, const TraceField& f) {
  switch (f.kind) {
    case TraceField::Kind::Int: out += std::to_string(f.i); break;
    case TraceField::Kind::Double: out += json_number(f.d); break;
    case TraceField::Kind::Bool: out += f.b ? "true" : "false"; break;
    case TraceField::Kind::Str: out += json_quote(f.s); break;
    case TraceField::Kind::Json: out += f.s; break;
  }
}

}  // namespace

void Tracer::emit(const TraceEvent& ev) {
  // Serializes concurrent emitters sharing one sink: each event is written
  // as one atomic line, never interleaved. Cross-thread event *order* is
  // whatever the interleaving produced, so a deterministic trace comes from
  // one simulation thread (a sharded dbsim run traces shard 0 only).
  std::lock_guard<std::mutex> lock(emit_mutex_);
  if (out_ == nullptr) return;
  if (format_ == TraceFormat::Jsonl)
    write_jsonl(ev);
  else
    write_chrome(ev);
  ++emitted_;
  if (buffer_.size() >= kFlushBytes) drain_locked(/*sync=*/false);
}

void Tracer::write_jsonl(const TraceEvent& ev) {
  std::string& out = buffer_;
  out += "{\"t_us\": ";
  out += std::to_string(ev.at.as_micros());
  out += ", \"cat\": ";
  out += json_quote(ev.cat);
  out += ", \"name\": ";
  out += json_quote(ev.name);
  if (ev.dur_us >= 0) {
    out += ", \"dur_us\": ";
    out += std::to_string(ev.dur_us);
  }
  for (const TraceField& f : ev.fields) {
    out += ", ";
    out += json_quote(f.key);
    out += ": ";
    append_field_value(out, f);
  }
  out += "}\n";
}

void Tracer::write_chrome(const TraceEvent& ev) {
  std::string& out = buffer_;
  if (!chrome_open_) {
    out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    chrome_open_ = true;
  } else {
    out += ",";
  }
  // Instant events use phase "i" (global scope), spans the complete phase
  // "X" with a duration. One process/thread: the simulation is serial.
  out += "\n{\"name\": ";
  out += json_quote(ev.name);
  out += ", \"cat\": ";
  out += json_quote(ev.cat);
  out += ", \"ph\": ";
  out += ev.dur_us >= 0 ? "\"X\"" : "\"i\"";
  out += ", \"ts\": ";
  out += std::to_string(ev.at.as_micros());
  out += ", \"pid\": 1, \"tid\": 1";
  if (ev.dur_us >= 0) {
    out += ", \"dur\": ";
    out += std::to_string(ev.dur_us);
  } else {
    out += ", \"s\": \"g\"";
  }
  out += ", \"args\": {";
  bool first = true;
  for (const TraceField& f : ev.fields) {
    if (!first) out += ", ";
    out += json_quote(f.key);
    out += ": ";
    append_field_value(out, f);
    first = false;
  }
  out += "}}";
}

}  // namespace dbs::obs
