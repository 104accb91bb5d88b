// The decision vocabulary: names, JSON shape, applier dry-run recording.
#include "rms/decision.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "rms/decision_applier.hpp"

namespace dbs::rms {
namespace {

TEST(Decision, KindNamesAreStable) {
  EXPECT_EQ(to_string(DecisionKind::StartJob), "start_job");
  EXPECT_EQ(to_string(DecisionKind::GrantDyn), "grant_dyn");
  EXPECT_EQ(to_string(DecisionKind::RejectDyn), "reject_dyn");
  EXPECT_EQ(to_string(DecisionKind::Preempt), "preempt");
  EXPECT_EQ(to_string(DecisionKind::ShrinkMalleable), "shrink_malleable");
  EXPECT_EQ(to_string(DecisionKind::Reserve), "reserve");
}

TEST(Decision, RejectReasonNamesAreStable) {
  EXPECT_EQ(to_string(RejectReason::Granted), "granted");
  EXPECT_EQ(to_string(RejectReason::NoIdleResources), "no-idle-resources");
  EXPECT_EQ(to_string(RejectReason::NodeFragmentation), "node-fragmentation");
  EXPECT_EQ(to_string(RejectReason::DeniedPermission), "denied-permission");
  EXPECT_EQ(to_string(RejectReason::DeniedSingleDelay),
            "denied-single-delay");
  EXPECT_EQ(to_string(RejectReason::DeniedTargetDelay),
            "denied-target-delay");
  EXPECT_EQ(to_string(RejectReason::AllocationFailed), "allocation-failed");
  // A value read from a corrupt or newer file renders, never crashes.
  EXPECT_EQ(to_string(static_cast<RejectReason>(999)), "unknown");
}

TEST(Decision, StartJobJsonHasStableKeyOrder) {
  Decision d;
  d.kind = DecisionKind::StartJob;
  d.job = JobId{7};
  d.backfilled = true;
  std::string out;
  decision_to_json(d, out);
  EXPECT_EQ(out,
            "{\"kind\": \"start_job\", \"job\": 7, \"backfilled\": true, "
            "\"applied\": true}");
}

TEST(Decision, RejectJsonCarriesReasonDeferralAndHint) {
  Decision d;
  d.kind = DecisionKind::RejectDyn;
  d.job = JobId{3};
  d.request = RequestId{12};
  d.cores = 4;
  d.applied = true;
  d.deferred = true;
  d.reason = RejectReason::DeniedTargetDelay;
  d.hint = Time::from_seconds(2);
  std::string out;
  decision_to_json(d, out);
  EXPECT_EQ(out,
            "{\"kind\": \"reject_dyn\", \"job\": 3, \"request\": 12, "
            "\"cores\": 4, \"reason\": \"denied-target-delay\", "
            "\"deferred\": true, \"hint_us\": 2000000, \"applied\": true}");
}

TEST(Decision, ReserveJsonCarriesPlannedStart) {
  Decision d;
  d.kind = DecisionKind::Reserve;
  d.job = JobId{9};
  d.cores = 16;
  d.start = Time::from_seconds(600);
  std::string out;
  decision_to_json(d, out);
  EXPECT_EQ(out,
            "{\"kind\": \"reserve\", \"job\": 9, \"cores\": 16, "
            "\"start_us\": 600000000, \"applied\": true}");
}

TEST(Decision, StreamJsonIsAnArray) {
  Decision a;
  a.kind = DecisionKind::Preempt;
  a.job = JobId{1};
  a.for_job = JobId{2};
  EXPECT_EQ(decisions_to_json({a, a}),
            "[{\"kind\": \"preempt\", \"job\": 1, \"for_job\": 2, "
            "\"applied\": true}, "
            "{\"kind\": \"preempt\", \"job\": 1, \"for_job\": 2, "
            "\"applied\": true}]");
  EXPECT_EQ(decisions_to_json({}), "[]");
}

TEST(DecisionApplier, LiveStartJobActsOnServerAndRecords) {
  test::BareSystem sys;
  const JobId id = sys.server.submit(test::spec("a", 8, Duration::minutes(5)),
                                     test::rigid(Duration::minutes(1)));
  DecisionApplier applier(sys.server);
  applier.begin_iteration(/*dry_run=*/false);
  EXPECT_TRUE(applier.start_job(id, /*backfilled=*/false));
  EXPECT_EQ(sys.server.jobs().running().size(), 1u);
  ASSERT_EQ(applier.decisions().size(), 1u);
  const Decision& d = applier.decisions()[0];
  EXPECT_EQ(d.kind, DecisionKind::StartJob);
  EXPECT_EQ(d.job, id);
  EXPECT_TRUE(d.applied);
  EXPECT_FALSE(d.backfilled);
}

TEST(DecisionApplier, DryRunRecordsWithoutTouchingServer) {
  test::BareSystem sys;
  const JobId id = sys.server.submit(test::spec("a", 8, Duration::minutes(5)),
                                     test::rigid(Duration::minutes(1)));
  DecisionApplier applier(sys.server);
  applier.begin_iteration(/*dry_run=*/true);
  EXPECT_TRUE(applier.start_job(id, /*backfilled=*/true));
  applier.reserve(id, 8, Time::from_seconds(60));
  // Nothing happened to the server: the job is still queued, no cores used.
  EXPECT_EQ(sys.server.jobs().running().size(), 0u);
  EXPECT_EQ(sys.cluster.free_cores(), sys.cluster.total_cores());
  ASSERT_EQ(applier.decisions().size(), 2u);
  EXPECT_TRUE(applier.decisions()[0].applied);  // assumed success
  EXPECT_EQ(applier.decisions()[1].kind, DecisionKind::Reserve);
}

TEST(DecisionApplier, BeginIterationClearsTheStream) {
  test::BareSystem sys;
  DecisionApplier applier(sys.server);
  applier.begin_iteration(true);
  applier.reserve(JobId{1}, 4, Time::epoch());
  applier.begin_iteration(false);
  EXPECT_TRUE(applier.decisions().empty());
  EXPECT_FALSE(applier.dry_run());
}

}  // namespace
}  // namespace dbs::rms
