#include "core/tail_staircase.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/availability_profile.hpp"

namespace dbs::core {

namespace {
/// Window covering every feasible walltime (the last staircase entry).
const Duration kForever = Time::far_future() - Time::epoch();
}  // namespace

void TailStaircase::rebuild(const AvailabilityProfile& profile, Time now) {
  steps.clear();
  // Prefix minimum over the profile steps from `now` on: step i bounds
  // windows up to (step[i+1].at - now); equal-minimum runs compress into
  // one entry by extending its window.
  std::size_t i = profile.segment_of(max(now, profile.origin()));
  CoreCount m = profile.step(i).free;
  for (;; ++i) {
    const bool last = i + 1 == profile.step_count();
    const Duration window = last ? kForever : profile.step(i + 1).at - now;
    if (!steps.empty() && steps.back().min_free == m)
      steps.back().window = window;
    else
      steps.push_back({window, m});
    if (last) break;
    m = std::min(m, profile.step(i + 1).free);
  }
}

CoreCount TailStaircase::min_for(Duration window) const {
  DBS_ASSERT(!steps.empty(), "staircase queried before rebuild");
  const auto it = std::lower_bound(
      steps.begin(), steps.end(), window,
      [](const MinStep& s, Duration w) { return s.window < w; });
  DBS_ASSERT(it != steps.end(), "window beyond the forever entry");
  return it->min_free;
}

}  // namespace dbs::core
