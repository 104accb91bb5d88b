// Shared helpers for the test suites.
#pragma once

#include <memory>

#include "apps/app_model.hpp"
#include "apps/rigid.hpp"
#include "cluster/cluster.hpp"
#include "core/reservation_table.hpp"
#include "rms/mom.hpp"
#include "rms/server.hpp"
#include "sim/simulator.hpp"

namespace dbs::test {

/// A server + moms + cluster without any scheduler: tests drive grants and
/// starts by hand and observe the protocol directly.
struct BareSystem {
  explicit BareSystem(std::size_t nodes = 4, CoreCount cores_per_node = 8,
                      rms::LatencyModel latency = rms::LatencyModel{})
      : cluster(cluster::ClusterSpec{nodes, cores_per_node}),
        server(sim, cluster, latency),
        moms(sim, server, latency) {
    server.set_moms(&moms);
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  rms::Server server;
  rms::MomManager moms;
};

/// The reservation `table` holds for `job`, or nullptr. A linear scan: the
/// scheduler itself only walks tables in order.
inline const core::Reservation* reservation_of(
    const core::ReservationTable& table, JobId job) {
  for (const core::Reservation& r : table.items())
    if (r.job->id() == job) return &r;
  return nullptr;
}

/// The paper's fairness policies as a Maui config over swfgen's users
/// (u0, u1, ...): fairshare with per-user targets and an xfactor weight
/// ordering the queue, DFS judging each dynamic request by single and
/// target delays, and reservation depth 4.
inline constexpr const char* kFairnessConfig = R"(RESERVATIONDEPTH 4
FAIRSHARE ON
FSWEIGHT 1
FSINTERVAL 01:00:00
FSDEPTH 4
FSDECAY 0.5
USERCFG[u1] FSTARGET=10
USERCFG[u2] FSTARGET=15
USERCFG[u3] FSTARGET=5
USERCFG[u7] FSTARGET=20
USERCFG[u38] FSTARGET=25
XFACTORWEIGHT 10
DFSPOLICY DFSSINGLEANDTARGETDELAY
DFSINTERVAL 01:00:00
DFSDECAY 0.5
DFSDEFAULTCFG DFSTARGETDELAYTIME=00:20:00 DFSSINGLEDELAYTIME=00:05:00
)";

inline rms::JobSpec spec(std::string name, CoreCount cores, Duration walltime,
                         std::string user = "alice") {
  rms::JobSpec s;
  s.name = std::move(name);
  s.cred = {std::move(user), "grp", "", "batch", ""};
  s.cores = cores;
  s.walltime = walltime;
  return s;
}

inline std::unique_ptr<rms::Application> rigid(Duration runtime) {
  return std::make_unique<apps::RigidApp>(runtime);
}

/// A job record already running on `placement` since `started`, outside
/// any server (submitted at the epoch). Planning kernels read jobs by
/// pointer; Job::restore builds the running state directly, since state
/// transitions belong to a JobQueue.
inline std::unique_ptr<rms::Job> running_job(
    JobId id, rms::JobSpec s, std::unique_ptr<rms::Application> app,
    Time started, cluster::Placement placement, bool backfilled = false) {
  rms::Job::Restore r;
  r.state = rms::JobState::Running;
  r.start = started;
  r.placement = std::move(placement);
  r.backfilled = backfilled;
  return rms::Job::restore(id, std::move(s), std::move(app), Time::epoch(), r);
}

}  // namespace dbs::test
