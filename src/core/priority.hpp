// Maui-style job prioritization: a weighted sum of service (queue time,
// expansion factor), resource, credential and fairshare components.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "rms/job.hpp"

namespace dbs::core {

class Fairshare;

struct PriorityWeights {
  double queue_time_per_minute = 1.0;  ///< QUEUETIMEWEIGHT
  double xfactor = 0.0;                ///< XFACTORWEIGHT
  double per_core = 0.0;               ///< RESWEIGHT (per requested core)
  double cred = 0.0;                   ///< CREDWEIGHT (scales entity priorities)
  double fairshare = 0.0;              ///< FSWEIGHT
};

/// Administrator-assigned priority per credential entity (USERCFG PRIORITY=).
struct CredPriorities {
  std::unordered_map<std::string, double> user;
  std::unordered_map<std::string, double> group;
  std::unordered_map<std::string, double> account;
  std::unordered_map<std::string, double> job_class;
  std::unordered_map<std::string, double> qos;

  /// 0.0 without a lookup when no entity has a priority configured.
  [[nodiscard]] double total_for(const Credentials& cred) const;
};

/// One job's comparator inputs for PriorityEngine::order.
struct PriorityKey {
  bool exclusive = false;
  double priority = 0.0;
  Time submit;
  JobId id;
  const rms::Job* job = nullptr;
};

class PriorityEngine {
 public:
  PriorityEngine(PriorityWeights weights, CredPriorities cred_priorities,
                 const Fairshare* fairshare);

  /// The scalar priority of a queued job at time `now`.
  [[nodiscard]] double priority(const rms::Job& job, Time now) const;

  /// Sorts jobs by descending priority. Jobs with the exclusive_priority
  /// flag (ESP Z jobs) always sort first. Ties break on submission time,
  /// then id, so the order is total and deterministic.
  [[nodiscard]] std::vector<rms::Job*> prioritize(std::vector<rms::Job*> jobs,
                                                  Time now) const;
  [[nodiscard]] std::vector<const rms::Job*> prioritize(
      std::vector<const rms::Job*> jobs, Time now) const;

  /// prioritize()'s order, in place, with each job's priority computed once
  /// into `keys` (reused scratch) instead of inside the comparator. The
  /// sort is skipped when `jobs` already is in order, as a queue in
  /// submission order is under queue-time-only weights. Returns whether any
  /// job has exclusive priority.
  bool order(std::vector<const rms::Job*>& jobs, Time now,
             std::vector<PriorityKey>& keys) const;

 private:
  PriorityWeights weights_;
  CredPriorities cred_;
  const Fairshare* fairshare_;
};

}  // namespace dbs::core
