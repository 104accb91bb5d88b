// The dynamic ESP benchmark (paper §IV-B, Table I): the classic ESP
// system-utilization benchmark of Wong et al. modified so that job types
// F, G, H, I and J evolve — each requests 4 extra cores after 16 % of its
// static execution time (modelled on the Quadflow Cylinder case), retries
// at 25 % if rejected, and speeds up linearly on success.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "rms/job.hpp"

namespace dbs::wl {

/// How a job behaves once running — enough to build an Application.
struct Behavior {
  Duration static_runtime;            ///< SET
  bool evolving = false;
  double first_ask_frac = 0.16;       ///< first tm_dynget at this SET fraction
  double retry_frac = 0.25;           ///< second chance at this SET fraction
  CoreCount ask_cores = 4;
  Duration negotiation_timeout = Duration::zero();
  /// Malleable jobs need a work-conserving application model that adapts
  /// to scheduler-initiated reshapes (apps::ResilientApp).
  bool malleable = false;

  [[nodiscard]] bool operator==(const Behavior&) const = default;
};

/// One job to inject into the batch system, or, when `cancel` is set, a
/// qdel of that job at `at` (spec and behavior unused).
struct SubmitSpec {
  Time at;
  rms::JobSpec spec;
  Behavior behavior;
  JobId cancel;  ///< invalid for a qsub
};

/// A full workload plus bookkeeping for reports.
struct Workload {
  std::vector<SubmitSpec> jobs;  ///< in submission order
  CoreCount total_cores = 0;

  [[nodiscard]] std::size_t evolving_count() const;
  [[nodiscard]] std::size_t rigid_count() const;
};

/// One row of Table I.
struct EspJobType {
  char letter;
  double fraction;        ///< of the machine's cores
  int count;
  std::string user;
  Duration set;           ///< static execution time
  bool evolving;
  Duration paper_det;     ///< Table I's dynamic execution time (zero: rigid)
};

/// The 14 job types of Table I.
[[nodiscard]] const std::vector<EspJobType>& esp_table();

/// Job size in cores on a machine with `total_cores` (nearest integer of
/// fraction * total_cores, at least 1).
[[nodiscard]] CoreCount esp_cores(const EspJobType& type, CoreCount total_cores);

/// Our evolving-job timing model, derived from Table I:
/// DET = SET * S / (S + extra).
[[nodiscard]] Duration model_det(Duration set, CoreCount cores,
                                 CoreCount extra_cores);

struct EspParams {
  CoreCount total_cores = 128;     ///< 16 nodes x 8 cores (see DESIGN.md)
  std::uint64_t seed = 2014;       ///< submission-order shuffle
  bool evolving_enabled = true;    ///< false = the Static configuration
  double first_ask_frac = 0.16;
  double retry_frac = 0.25;
  CoreCount ask_cores = 4;
  std::size_t instant_jobs = 50;   ///< submitted at t = 0
  Duration submit_interval = Duration::seconds(30);
  Duration z_delay = Duration::minutes(30);  ///< Z jobs after the last job
  double walltime_factor = 1.0;    ///< walltime = SET * factor
  Duration negotiation_timeout = Duration::zero();
};

/// Generates the 230-job dynamic ESP workload: 228 shuffled A-M jobs on the
/// ESP submission schedule, then the two full-machine Z jobs (exclusive
/// priority) `z_delay` after the last submission.
[[nodiscard]] Workload generate_esp(const EspParams& params);

}  // namespace dbs::wl
