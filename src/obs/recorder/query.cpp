#include "obs/recorder/query.hpp"

#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>

#include "obs/json.hpp"
#include "obs/recorder/recorder.hpp"
#include "rms/decision.hpp"

namespace dbs::obs::rec {

Summary summarize(RecordReader& reader) {
  Summary s;
  s.capacity = reader.capacity();
  s.jobs = reader.indexed_jobs();
  bool first = true;
  reader.scan_all([&](const PackedRecord& r) {
    ++s.record_count;
    if (is_decision(r.type))
      ++s.decision_records;
    else
      ++s.lifecycle_records;
    const auto type = static_cast<std::size_t>(r.type);
    if (type < s.by_type.size()) ++s.by_type[type];
    if (first) {
      s.first_t_us = r.t_us;
      first = false;
    }
    s.last_t_us = r.t_us;
  });
  return s;
}

void write_summary_json(const Summary& s, std::ostream& os) {
  os << "{\n  \"records\": " << s.record_count
     << ",\n  \"lifecycle\": " << s.lifecycle_records
     << ",\n  \"decisions\": " << s.decision_records
     << ",\n  \"jobs\": " << s.jobs << ",\n  \"capacity\": " << s.capacity
     << ",\n  \"first_t_us\": " << s.first_t_us
     << ",\n  \"last_t_us\": " << s.last_t_us << ",\n  \"by_type\": {";
  bool first = true;
  for (std::size_t i = 0; i < s.by_type.size(); ++i) {
    if (s.by_type[i] == 0) continue;
    os << (first ? "\n" : ",\n") << "    "
       << json_quote(to_string(static_cast<RecordType>(i))) << ": "
       << s.by_type[i];
    first = false;
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

std::string lifecycle_to_json(const PackedRecord& r,
                              const RecordReader& reader) {
  std::string out = "{\"event\": \"";
  out += to_string(r.type);
  out += "\", \"t_us\": ";
  out += std::to_string(r.t_us);
  out += ", \"job\": ";
  out += std::to_string(r.job);
  if (r.request != kNoId) {
    out += ", \"request\": ";
    out += std::to_string(r.request);
  }
  if (r.cores != 0) {
    out += ", \"cores\": ";
    out += std::to_string(r.cores);
  }
  switch (r.type) {
    case RecordType::Submit:
      out += ", \"user\": ";
      out += json_quote(reader.string_at(r.user));
      out += ", \"walltime_us\": ";
      out += std::to_string(r.aux_us);
      break;
    case RecordType::Start:
      out += ", \"wait_us\": ";
      out += std::to_string(r.aux_us);
      if (r.has(kFlagBackfilled)) out += ", \"backfilled\": true";
      break;
    default:
      break;
  }
  out += '}';
  return out;
}

std::vector<JobHistoryLine> job_history(RecordReader& reader,
                                        std::uint64_t job) {
  std::vector<JobHistoryLine> lines;
  for (const PackedRecord& r : reader.for_job(job)) {
    JobHistoryLine line;
    line.t_us = r.t_us;
    line.is_decision = is_decision(r.type);
    if (line.is_decision)
      rms::decision_to_json(record_to_decision(r), line.json);
    else
      line.json = lifecycle_to_json(r, reader);
    lines.push_back(std::move(line));
  }
  return lines;
}

namespace {

/// Minimal field extraction from one JSONL trace line. The tracer writes
/// `"key": value` with a single space, stable per-event key order; this
/// looks the key up anywhere in the line, so it stays correct if fields
/// move.
std::optional<std::int64_t> int_field(const std::string& line,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* begin = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin) return std::nullopt;
  return v;
}

std::optional<std::string> str_field(const std::string& line,
                                     const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const auto begin = pos + needle.size();
  const auto end = line.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(begin, end - begin);
}

std::optional<bool> bool_field(const std::string& line,
                               const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return line.compare(pos + needle.size(), 4, "true") == 0;
}

struct Expect {
  const char* trace_name;
  std::int64_t t_us;
  std::string detail;  ///< rendered decision, for mismatch messages
  std::int64_t job = -1;
  std::int64_t request = -1;
  std::int64_t cores = -1;   ///< -1: don't check
  int backfilled = -1;       ///< -1: don't check, else 0/1
};

}  // namespace

VerifyResult verify_against_trace(RecordReader& reader,
                                  const std::string& trace_path) {
  VerifyResult result;
  // Pass 1: the expected rms event for every applied decision, per event
  // name, in decision order. Decision order within an iteration is
  // execution order, so each per-name queue is ordered like the trace.
  std::map<std::string, std::deque<Expect>> expected;
  reader.scan_all([&](const PackedRecord& r) {
    if (!is_decision(r.type)) return;
    if (!r.has(kFlagApplied) && !r.has(kFlagDeferred)) return;
    Expect e;
    e.t_us = r.t_us;
    e.job = r.job;
    rms::decision_to_json(record_to_decision(r), e.detail);
    switch (r.type) {
      case RecordType::DecStartJob:
        e.trace_name = "job_start";
        e.backfilled = r.has(kFlagBackfilled) ? 1 : 0;
        break;
      case RecordType::DecGrantDyn:
        e.trace_name = "dyn_grant";
        e.request = r.request;
        e.cores = r.cores;
        break;
      case RecordType::DecRejectDyn:
        e.trace_name = r.has(kFlagDeferred) ? "dyn_defer" : "dyn_reject";
        e.request = r.request;
        break;
      case RecordType::DecPreempt:
        e.trace_name = "preempt";
        break;
      case RecordType::DecShrinkMalleable:
        e.trace_name = "malleable_shrink";
        e.cores = r.cores;
        break;
      default:
        return;  // Reserve has no server-side event
    }
    expected[e.trace_name].push_back(std::move(e));
  });

  // Pass 2: consume the trace; every matching rms event must equal the
  // front of its queue.
  std::ifstream in(trace_path);
  if (!in.is_open()) {
    result.mismatches.push_back("cannot open trace " + trace_path);
    return result;
  }
  const auto mismatch = [&](const std::string& message) {
    if (result.mismatches.size() < 16) result.mismatches.push_back(message);
  };
  std::string line;
  while (std::getline(in, line)) {
    const auto cat = str_field(line, "cat");
    const auto name = str_field(line, "name");
    if (!cat || *cat != "rms" || !name) continue;
    const auto it = expected.find(*name);
    if (it == expected.end()) continue;
    if (it->second.empty()) {
      mismatch("trace has extra " + *name + " event: " + line);
      continue;
    }
    const Expect e = std::move(it->second.front());
    it->second.pop_front();
    ++result.compared;
    const auto t = int_field(line, "t_us");
    const auto job = int_field(line, "job");
    const auto request = int_field(line, "request");
    const auto cores = int_field(line, "extra_cores")
                           ? int_field(line, "extra_cores")
                           : int_field(line, "cores");
    const auto backfilled = bool_field(line, "backfilled");
    const bool bad =
        (!t || *t != e.t_us) || (!job || *job != e.job) ||
        (e.request >= 0 && (!request || *request != e.request)) ||
        (e.cores >= 0 && (!cores || *cores != e.cores)) ||
        (e.backfilled >= 0 &&
         (!backfilled || (*backfilled ? 1 : 0) != e.backfilled));
    if (bad)
      mismatch("decision " + e.detail + " does not match trace line: " + line);
  }
  for (auto& [name, queue] : expected)
    if (!queue.empty())
      mismatch(std::to_string(queue.size()) + " recorded " + name +
               " decision(s) missing from the trace, first: " +
               queue.front().detail);
  return result;
}

}  // namespace dbs::obs::rec
