#include "core/dfs_engine.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "obs/tracer.hpp"
#include "rms/job.hpp"

namespace dbs::core {

namespace {

const char* verdict_counter_name(DfsVerdict v) {
  switch (v) {
    case DfsVerdict::Allowed: return "dfs.allowed";
    case DfsVerdict::DeniedPermission: return "dfs.denied_permission";
    case DfsVerdict::DeniedSingleDelay: return "dfs.denied_single_delay";
    case DfsVerdict::DeniedTargetDelay: return "dfs.denied_target_delay";
  }
  return "dfs.unknown";
}

}  // namespace

std::string_view to_string(DfsVerdict v) {
  switch (v) {
    case DfsVerdict::Allowed: return "allowed";
    case DfsVerdict::DeniedPermission: return "denied-permission";
    case DfsVerdict::DeniedSingleDelay: return "denied-single-delay";
    case DfsVerdict::DeniedTargetDelay: return "denied-target-delay";
  }
  return "?";
}

DfsEngine::DfsEngine(DfsConfig config, Time start)
    : config_(std::move(config)),
      interval_start_(start),
      registry_(&obs::Registry::global()) {
  config_.validate();
}

void DfsEngine::set_sinks(const obs::Sinks& sinks) {
  tracer_ = sinks.tracer;
  registry_ = &sinks.registry_or_global();
  verdict_counters_ = {};
}

DfsEngine::EntityAcc& DfsEngine::acc_of(DfsEntityKind kind) {
  switch (kind) {
    case DfsEntityKind::User: return acc_user_;
    case DfsEntityKind::Group: return acc_group_;
    case DfsEntityKind::Account: return acc_account_;
    case DfsEntityKind::JobClass: return acc_class_;
    case DfsEntityKind::Qos: return acc_qos_;
  }
  DBS_ASSERT(false, "unreachable");
  return acc_user_;
}

const DfsEngine::EntityAcc& DfsEngine::acc_of(DfsEntityKind kind) const {
  return const_cast<DfsEngine*>(this)->acc_of(kind);
}

void DfsEngine::advance_to(Time now) {
  while (now - interval_start_ >= config_.interval) {
    interval_start_ += config_.interval;
    DBS_TRACE_EVENT(tracer_,
                    obs::TraceEvent(now, "dfs", "interval_roll")
                        .field("interval_start_us", interval_start_.as_micros())
                        .field("decay", config_.decay));
    // Roll the interval: carry `decay` of each accumulated delay forward.
    for (const DfsEntityKind kind : kAllDfsEntityKinds) {
      EntityAcc& acc = acc_of(kind);
      for (auto it = acc.begin(); it != acc.end();) {
        it->second = it->second.scaled(config_.decay);
        if (it->second <= Duration::zero())
          it = acc.erase(it);
        else
          ++it;
      }
    }
  }
}

DfsVerdict DfsEngine::admit(const Credentials& requester,
                            const std::vector<DelayedJob>& delays) const {
  if (config_.policy == DfsPolicy::None) return DfsVerdict::Allowed;
  const DfsVerdict verdict = admit_impl(requester, delays);
  obs::lazy_counter(*registry_,
                    verdict_counters_[static_cast<std::size_t>(verdict)],
                    verdict_counter_name(verdict))
      .add();
  if (tracer_ != nullptr && tracer_->enabled()) {
    Duration worst = Duration::zero();
    for (const DelayedJob& d : delays) worst = max(worst, d.delay);
    tracer_->emit(obs::TraceEvent(tracer_->now(), "dfs", "admit")
                      .field("requester", requester.user)
                      .field("verdict", to_string(verdict))
                      .field("delayed_jobs", delays.size())
                      .field("max_delay_s", worst.as_seconds()));
  }
  return verdict;
}

DfsVerdict DfsEngine::admit_impl(const Credentials& requester,
                                 const std::vector<DelayedJob>& delays) const {

  // Pass 1: permission. Any affected entity with DFSDYNDELAYPERM=0 vetoes.
  for (const DelayedJob& d : delays) {
    DBS_REQUIRE(d.job != nullptr, "delayed job must be set");
    if (d.delay <= Duration::zero()) continue;
    const Credentials& cred = d.job->spec().cred;
    if (cred.user == requester.user) continue;  // same-user delays don't count
    for (const DfsEntityKind kind : kAllDfsEntityKinds) {
      const std::string& name = entity_name(cred, kind);
      if (name.empty()) continue;
      if (!config_.limits_of(kind, name).delay_perm)
        return DfsVerdict::DeniedPermission;
    }
  }

  // Pass 2: per-job single-delay caps (most restrictive configured limit
  // across the job's entities applies).
  if (has_single(config_.policy)) {
    for (const DelayedJob& d : delays) {
      if (d.delay <= Duration::zero()) continue;
      const Credentials& cred = d.job->spec().cred;
      if (cred.user == requester.user) continue;
      const Duration already = job_delay(d.job->id());
      for (const DfsEntityKind kind : kAllDfsEntityKinds) {
        const std::string& name = entity_name(cred, kind);
        if (name.empty()) continue;
        const Duration limit = config_.limits_of(kind, name).single_delay;
        if (limit.is_zero()) continue;  // unlimited
        if (already + d.delay > limit) return DfsVerdict::DeniedSingleDelay;
      }
    }
  }

  // Pass 3: per-interval cumulative caps. Sum the new delays per entity and
  // compare against the already-accumulated delay.
  if (has_target(config_.policy)) {
    for (const DfsEntityKind kind : kAllDfsEntityKinds) {
      std::unordered_map<std::string, Duration> fresh;
      for (const DelayedJob& d : delays) {
        if (d.delay <= Duration::zero()) continue;
        const Credentials& cred = d.job->spec().cred;
        if (cred.user == requester.user) continue;
        const std::string& name = entity_name(cred, kind);
        if (name.empty()) continue;
        fresh[name] += d.delay;
      }
      for (const auto& [name, sum] : fresh) {
        const Duration limit = config_.limits_of(kind, name).target_delay;
        if (limit.is_zero()) continue;  // unlimited
        if (accumulated(kind, name) + sum > limit)
          return DfsVerdict::DeniedTargetDelay;
      }
    }
  }

  return DfsVerdict::Allowed;
}

void DfsEngine::commit(const Credentials& requester,
                       const std::vector<DelayedJob>& delays) {
  if (config_.policy == DfsPolicy::None) return;
  Duration charged = Duration::zero();
  std::size_t charged_jobs = 0;
  for (const DelayedJob& d : delays) {
    if (d.delay <= Duration::zero()) continue;
    const Credentials& cred = d.job->spec().cred;
    if (cred.user == requester.user) continue;
    job_delay_[d.job->id()] += d.delay;
    charged += d.delay;
    ++charged_jobs;
    for (const DfsEntityKind kind : kAllDfsEntityKinds) {
      const std::string& name = entity_name(cred, kind);
      if (name.empty()) continue;
      acc_of(kind)[name] += d.delay;
    }
  }
  DBS_TRACE_EVENT(tracer_, obs::TraceEvent(tracer_->now(), "dfs", "commit")
                               .field("requester", requester.user)
                               .field("charged_jobs", charged_jobs)
                               .field("charged_delay_s", charged.as_seconds()));
}

Duration DfsEngine::accumulated(DfsEntityKind kind,
                                const std::string& name) const {
  const EntityAcc& acc = acc_of(kind);
  auto it = acc.find(name);
  return it == acc.end() ? Duration::zero() : it->second;
}

Duration DfsEngine::job_delay(JobId id) const {
  auto it = job_delay_.find(id);
  return it == job_delay_.end() ? Duration::zero() : it->second;
}

DfsEngine::State DfsEngine::save_state() const {
  State s;
  s.interval_start = interval_start_;
  std::size_t slot = 0;
  for (const DfsEntityKind kind : kAllDfsEntityKinds) {
    auto& out = s.entities[slot++];
    for (const auto& [name, delay] : acc_of(kind))
      out.emplace_back(name, delay);
    std::sort(out.begin(), out.end());
  }
  s.job_delays.assign(job_delay_.begin(), job_delay_.end());
  std::sort(s.job_delays.begin(), s.job_delays.end());
  return s;
}

void DfsEngine::restore_state(const State& s) {
  interval_start_ = s.interval_start;
  std::size_t slot = 0;
  for (const DfsEntityKind kind : kAllDfsEntityKinds) {
    EntityAcc& acc = acc_of(kind);
    acc.clear();
    for (const auto& [name, delay] : s.entities[slot++]) acc.emplace(name, delay);
  }
  job_delay_.clear();
  for (const auto& [id, delay] : s.job_delays) job_delay_.emplace(id, delay);
}

}  // namespace dbs::core
