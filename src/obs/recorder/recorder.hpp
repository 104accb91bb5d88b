// FlightRecorder — turns the live run into a flight-recorder file.
//
// Two capture paths feed one RecordWriter:
//   * lifecycle events, via rms::ServerObserver (the recorder registers on
//     the server exactly like metrics::Recorder);
//   * the scheduler's typed decision stream, via record_decisions() called
//     by MauiScheduler at the end of every applied (non-dry-run) iteration.
//
// A decision has one stored form, decision_record(): the recorder appends
// it and the WAL's decision frames hold it (svc/state_store.hpp). Decision
// records round-trip: record_to_decision() reconstructs an rms::Decision
// whose decision_to_json rendering is byte-identical to what the dry-run
// printer would have emitted for the original.
//
// Ownership: one recorder per replication, used only from that
// replication's simulation thread (ParallelRunner isolates replications,
// and the scheduler's what-if measurement threads never record).
#pragma once

#include <functional>
#include <string>

#include "obs/recorder/writer.hpp"
#include "rms/decision.hpp"
#include "rms/server.hpp"

namespace dbs::obs::rec {

class FlightRecorder : public rms::ServerObserver {
 public:
  FlightRecorder() = default;

  /// Opens the output file. `capacity` is the cluster's total core count.
  bool open(const std::string& path, std::int64_t capacity,
            std::int64_t time_bucket_us = 60'000'000) {
    return writer_.open(path, capacity, time_bucket_us);
  }

  [[nodiscard]] bool is_open() const { return writer_.is_open(); }
  [[nodiscard]] std::uint64_t records_written() const {
    return writer_.records_written();
  }
  [[nodiscard]] const std::string& path() const { return writer_.path(); }
  [[nodiscard]] std::int64_t first_t_us() const { return writer_.first_t_us(); }
  [[nodiscard]] std::int64_t last_t_us() const { return writer_.last_t_us(); }

  /// Writes the indexes + footer and closes the file.
  bool finalize() { return writer_.finalize(); }

  /// Simulated-clock source, wired by BatchSystem::set_sinks (same shape
  /// as Tracer::set_clock). Events recorded before wiring stamp epoch.
  void set_clock(std::function<Time()> clock) { clock_ = std::move(clock); }

  /// Captures one applied iteration's decision stream.
  void record_decisions(Time now, std::uint64_t iteration,
                        const std::vector<rms::Decision>& decisions);

  // --- rms::ServerObserver ----------------------------------------------
  void on_submit(const rms::Job& job) override;
  void on_job_start(const rms::Job& job) override;
  void on_job_finish(const rms::Job& job) override;
  void on_dyn_request(const rms::Job& job, const rms::DynRequest& req) override;
  void on_dyn_grant(const rms::Job& job, const rms::DynRequest& req,
                    CoreCount extra) override;
  void on_dyn_reject(const rms::Job& job, const rms::DynRequest& req) override;
  void on_dyn_release(const rms::Job& job, CoreCount cores) override;
  void on_malleable_shrink(const rms::Job& job, CoreCount cores) override;
  void on_requeue(const rms::Job& job) override;
  void on_nodes_lost(const rms::Job& job, CoreCount lost) override;
  void on_cancel(const rms::Job& job, CoreCount released) override;

 private:
  [[nodiscard]] Time now() const {
    return clock_ ? clock_() : Time::epoch();
  }
  PackedRecord base(RecordType type, JobId job) const;

  RecordWriter writer_;
  std::function<Time()> clock_;
};

/// The stored form of a decision executed at `at` in scheduler iteration
/// `iteration` (kept mod 2^32). Ids must fit the record's 32 bits: an
/// invalid id is stored as kNoId, and an id of kNoId or above throws
/// precondition_error rather than alias "no id".
[[nodiscard]] PackedRecord decision_record(Time at, std::uint64_t iteration,
                                           const rms::Decision& d);

/// Reconstructs the typed decision a decision record was written from.
/// Precondition: is_decision(r.type).
[[nodiscard]] rms::Decision record_to_decision(const PackedRecord& r);

}  // namespace dbs::obs::rec
