#include "workload/swf/swf_source.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace dbs::wl::swf {

namespace {

/// "u17"-style name from an SWF numeric id; empty for the -1 sentinel.
std::string numbered(char prefix, std::int64_t id) {
  if (id < 0) return {};
  return std::string(1, prefix) + std::to_string(id);
}

}  // namespace

SwfSource::SwfSource(std::istream& in, SwfSourceConfig config)
    : parser_(in, config.policy), config_(config) {
  DBS_REQUIRE(config_.overlay_dynamic_fraction >= 0.0 &&
                  config_.overlay_dynamic_fraction <= 1.0,
              "overlay fraction must be in [0, 1]");
}

bool SwfSource::overlay_marks(std::uint64_t seed, double fraction,
                              std::int64_t job_number) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  // Two splitmix64 steps over (seed, job number): a pure per-job hash, so
  // the mark does not depend on window size, trace position or how many
  // records were skipped before this one.
  std::uint64_t state = seed;
  (void)splitmix64_next(state);
  state ^= 0xD1B54A32D192ED03ULL *
           (static_cast<std::uint64_t>(job_number) + 1);
  const std::uint64_t z = splitmix64_next(state);
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  return u < fraction;
}

bool SwfSource::next(SubmitSpec& out) {
  SwfRecord r;
  while (parser_.next(r)) {
    // A record is replayable if it has a submission time, a positive size
    // and a known runtime. Allocated size wins over requested size (it is
    // what actually ran); zero-length jobs are floored to one second, the
    // simulator's resolution for a job that ran at all.
    const std::int64_t procs = r.used_procs > 0 ? r.used_procs : r.req_procs;
    if (r.submit_s < 0 || procs <= 0 || r.run_s < 0) {
      ++unusable_;
      continue;
    }
    std::int64_t submit_s = r.submit_s;
    if (submit_s < last_submit_s_) {
      submit_s = last_submit_s_;
      ++clamped_times_;
    }
    last_submit_s_ = submit_s;

    auto cores = static_cast<CoreCount>(procs);
    if (config_.max_cores > 0 && cores > config_.max_cores) {
      cores = config_.max_cores;
      ++clamped_cores_;
    }
    const Duration runtime = Duration::seconds(std::max<std::int64_t>(
        r.run_s, 1));
    // Requested walltime, floored to the actual runtime: traces contain
    // jobs that overran their request, and the simulator's applications
    // run to completion.
    const Duration walltime =
        std::max(r.req_time_s > 0 ? Duration::seconds(r.req_time_s) : runtime,
                 runtime);

    const std::int64_t number =
        r.job_number >= 0 ? r.job_number
                          : -static_cast<std::int64_t>(++anonymous_);
    // Jobs must carry a user (fair-share needs one); traces with an
    // unknown user all share a synthetic one.
    std::string user = numbered('u', r.user);
    if (user.empty()) user = "u_unknown";

    out.at = Time::epoch() + Duration::seconds(submit_s);
    out.spec = rms::JobSpec{};
    out.spec.name = "j" + std::to_string(number);
    out.spec.cred.user = std::string(users_.view(users_.intern(user)));
    out.spec.cred.group =
        std::string(groups_.view(groups_.intern(numbered('g', r.group))));
    out.spec.cred.job_class =
        std::string(queues_.view(queues_.intern(numbered('q', r.queue))));
    out.spec.cores = cores;
    out.spec.walltime = walltime;

    out.behavior = Behavior{};
    out.behavior.static_runtime = runtime;
    if (overlay_marks(config_.overlay_seed, config_.overlay_dynamic_fraction,
                      number)) {
      out.behavior.evolving = true;
      out.behavior.first_ask_frac = config_.first_ask_frac;
      out.behavior.retry_frac = config_.retry_frac;
      out.behavior.ask_cores = config_.ask_cores;
      ++overlay_marked_;
    }
    ++yielded_;
    return true;
  }
  return false;
}

}  // namespace dbs::wl::swf
