// Pull-based workload delivery: a SubmissionSource yields jobs one at a
// time, in non-decreasing submission-time order, so a driver can keep a
// bounded look-ahead window of future arrivals scheduled instead of
// materializing a whole trace (BatchSystem::submit_stream).
#pragma once

#include <cstddef>

#include "workload/esp.hpp"

namespace dbs::wl {

class SubmissionSource {
 public:
  virtual ~SubmissionSource() = default;

  /// Yields the next submission into `out` (default-constructed by the
  /// window); false when there is nothing more (out is untouched), and
  /// then nothing more until the source's owner re-arms the window
  /// (BatchSystem::submit_stream again). Successive submissions must have
  /// non-decreasing `at` — the window arms each arrival as it is pulled,
  /// and they fire in that order, so an out-of-order one would land in
  /// the simulator's past.
  virtual bool next(SubmitSpec& out) = 0;
};

/// Adapter: streams an already-materialized Workload. Exists so the
/// streaming driver can be differentially tested against
/// submit_workload on identical inputs, and as the trivial source for
/// generated workloads that fit in memory anyway.
class WorkloadSource final : public SubmissionSource {
 public:
  explicit WorkloadSource(const Workload& workload) : workload_(&workload) {}

  bool next(SubmitSpec& out) override {
    if (idx_ >= workload_->jobs.size()) return false;
    out = workload_->jobs[idx_++];
    return true;
  }

 private:
  const Workload* workload_;
  std::size_t idx_ = 0;
};

}  // namespace dbs::wl
