#include "core/scheduler_config.hpp"

#include "common/assert.hpp"

namespace dbs::core {

void SchedulerConfig::validate() const {
  dfs.validate();
  DBS_REQUIRE(poll_interval > Duration::zero(),
              "poll interval must be positive");
  DBS_REQUIRE(dynamic_partition_cores >= 0,
              "partition size cannot be negative");
  DBS_REQUIRE(fairshare.decay >= 0.0 && fairshare.decay <= 1.0,
              "FSDECAY must be in [0,1]");
  if (max_eligible_per_user)
    DBS_REQUIRE(*max_eligible_per_user > 0,
                "per-user throttle must allow at least one job");
}

}  // namespace dbs::core
