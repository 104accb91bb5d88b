#include "core/priority.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/fairshare.hpp"

namespace dbs::core {

namespace {
double lookup(const std::unordered_map<std::string, double>& m,
              const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

template <class JobPtr>
std::vector<JobPtr> prioritize_impl(const PriorityEngine& engine,
                                    std::vector<JobPtr> jobs, Time now) {
  std::stable_sort(jobs.begin(), jobs.end(), [&](JobPtr a, JobPtr b) {
    const bool xa = a->spec().exclusive_priority;
    const bool xb = b->spec().exclusive_priority;
    if (xa != xb) return xa;
    const double pa = engine.priority(*a, now);
    const double pb = engine.priority(*b, now);
    if (pa != pb) return pa > pb;
    if (a->submit_time() != b->submit_time())
      return a->submit_time() < b->submit_time();
    return a->id() < b->id();
  });
  return jobs;
}
}  // namespace

double CredPriorities::total_for(const Credentials& cred) const {
  if (user.empty() && group.empty() && account.empty() && job_class.empty() &&
      qos.empty())
    return 0.0;
  return lookup(user, cred.user) + lookup(group, cred.group) +
         lookup(account, cred.account) + lookup(job_class, cred.job_class) +
         lookup(qos, cred.qos);
}

PriorityEngine::PriorityEngine(PriorityWeights weights,
                               CredPriorities cred_priorities,
                               const Fairshare* fairshare)
    : weights_(weights), cred_(std::move(cred_priorities)),
      fairshare_(fairshare) {}

double PriorityEngine::priority(const rms::Job& job, Time now) const {
  DBS_REQUIRE(now >= job.submit_time(), "priority query before submission");
  const Duration queued = now - job.submit_time();
  const double qt_minutes = queued.as_seconds() / 60.0;
  const double xfactor =
      (queued + job.spec().walltime).ratio(job.spec().walltime);

  double p = weights_.queue_time_per_minute * qt_minutes +
             weights_.xfactor * xfactor +
             weights_.per_core * static_cast<double>(job.spec().cores) +
             weights_.cred * cred_.total_for(job.spec().cred);
  if (fairshare_ != nullptr && weights_.fairshare != 0.0)
    p += weights_.fairshare * fairshare_->component(job.spec().cred);
  return p;
}

std::vector<rms::Job*> PriorityEngine::prioritize(std::vector<rms::Job*> jobs,
                                                  Time now) const {
  return prioritize_impl(*this, std::move(jobs), now);
}

std::vector<const rms::Job*> PriorityEngine::prioritize(
    std::vector<const rms::Job*> jobs, Time now) const {
  return prioritize_impl(*this, std::move(jobs), now);
}

bool PriorityEngine::order(std::vector<const rms::Job*>& jobs, Time now,
                           std::vector<PriorityKey>& keys) const {
  keys.clear();
  bool any_exclusive = false;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i + 8 < jobs.size()) __builtin_prefetch(jobs[i + 8]);
    const rms::Job* job = jobs[i];
    const bool exclusive = job->spec().exclusive_priority;
    any_exclusive = any_exclusive || exclusive;
    keys.push_back(
        {exclusive, priority(*job, now), job->submit_time(), job->id(), job});
  }
  // prioritize_impl's comparator over the precomputed keys: a strict total
  // order, so the sorted sequence is unique and equals prioritize()'s.
  const auto before = [](const PriorityKey& a, const PriorityKey& b) {
    if (a.exclusive != b.exclusive) return a.exclusive;
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.id < b.id;
  };
  if (!std::is_sorted(keys.begin(), keys.end(), before)) {
    std::sort(keys.begin(), keys.end(), before);
    for (std::size_t i = 0; i < keys.size(); ++i) jobs[i] = keys[i].job;
  }
  return any_exclusive;
}

}  // namespace dbs::core
