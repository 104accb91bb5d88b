#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/assert.hpp"
#include "workload/synthetic.hpp"

namespace dbs::wl {
namespace {

TEST(Trace, RoundTripsEspWorkload) {
  const Workload original = generate_esp(EspParams{});
  const Workload copy = trace_from_string(trace_to_string(original));
  ASSERT_EQ(copy.jobs.size(), original.jobs.size());
  EXPECT_EQ(copy.total_cores, original.total_cores);
  for (std::size_t i = 0; i < original.jobs.size(); ++i) {
    const SubmitSpec& a = original.jobs[i];
    const SubmitSpec& b = copy.jobs[i];
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(a.spec.name, b.spec.name);
    EXPECT_EQ(a.spec.cred.user, b.spec.cred.user);
    EXPECT_EQ(a.spec.cores, b.spec.cores);
    EXPECT_EQ(a.spec.walltime, b.spec.walltime);
    EXPECT_EQ(a.spec.exclusive_priority, b.spec.exclusive_priority);
    EXPECT_EQ(a.behavior.evolving, b.behavior.evolving);
    EXPECT_EQ(a.behavior.static_runtime, b.behavior.static_runtime);
    EXPECT_EQ(a.behavior.ask_cores, b.behavior.ask_cores);
  }
}

TEST(Trace, RoundTripsSyntheticWithPreemptibleFlags) {
  SyntheticParams p;
  p.job_count = 40;
  p.preemptible_fraction = 0.5;
  const Workload original = generate_synthetic(p);
  const Workload copy = trace_from_string(trace_to_string(original));
  ASSERT_EQ(copy.jobs.size(), original.jobs.size());
  for (std::size_t i = 0; i < original.jobs.size(); ++i)
    EXPECT_EQ(copy.jobs[i].spec.preemptible,
              original.jobs[i].spec.preemptible);
}

TEST(Trace, IgnoresCommentsAndBlankLines) {
  const Workload wl = trace_from_string(
      "# a comment\n\n"
      "0 j1 alice grp batch 4 600000000 - 300000000 0.16 0.25 4 0\n");
  ASSERT_EQ(wl.jobs.size(), 1u);
  EXPECT_EQ(wl.jobs[0].spec.name, "j1");
  EXPECT_EQ(wl.jobs[0].spec.cores, 4);
  EXPECT_FALSE(wl.jobs[0].behavior.evolving);
}

TEST(Trace, ParsesFlags) {
  const Workload wl = trace_from_string(
      "0 e1 u g c 8 600000000 EXP 300000000 0.16 0.25 4 5000000\n");
  ASSERT_EQ(wl.jobs.size(), 1u);
  EXPECT_TRUE(wl.jobs[0].behavior.evolving);
  EXPECT_TRUE(wl.jobs[0].spec.exclusive_priority);
  EXPECT_TRUE(wl.jobs[0].spec.preemptible);
  EXPECT_EQ(wl.jobs[0].behavior.negotiation_timeout, Duration::seconds(5));
}

TEST(Trace, MalformedLinesRejectedWithLineNumber) {
  try {
    (void)trace_from_string("0 j1 alice grp batch 4\n");
    FAIL() << "expected throw";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW((void)trace_from_string(
                   "x j1 a g c 4 600000000 - 300000000 0.16 0.25 4 0\n"),
               precondition_error);
}

TEST(Trace, FieldOutOfRangeNamesLineAndField) {
  // Each field is read into its own type and range: a core count past
  // CoreCount or a fraction outside [0, 1] (NaN included) is an error naming
  // the line and the field, never a narrowed or absorbed value.
  const std::pair<const char*, const char*> cases[] = {
      {"# total_cores 4294967360\n",
       "trace line 1: total_cores expects an integer in [0, 2147483647], got "
       "'4294967360'"},
      {"# a comment\n"
       "0 j1 a g c 4294967304 600000000 - 300000000 0.16 0.25 4 0\n",
       "trace line 2: cores expects an integer in [1, 2147483647], got "
       "'4294967304'"},
      {"0 j1 a g c 4 600000000 - 300000000 nan 0.25 4 0\n",
       "trace line 1: ask_frac expects a number in [0, 1], got 'nan'"},
      {"0 j1 a g c 4 600000000 - 300000000 0.16 inf 4 0\n",
       "trace line 1: retry_frac expects a number in [0, 1], got 'inf'"},
      {"0 j1 a g c 4 600000000 E 300000000 0.16 0.25 4294967300 0\n",
       "trace line 1: ask_cores expects an integer in [0, 2147483647], got "
       "'4294967300'"},
      {"0 j1 a g c 4 600000000 - 300000000 0.16 0.25 4 0 4294967297\n",
       "trace line 1: malleable_min expects an integer in [0, 2147483647], "
       "got '4294967297'"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)trace_from_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const precondition_error& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(Trace, TotalCoresHeaderParsed) {
  const Workload wl = trace_from_string("# total_cores 64\n");
  EXPECT_EQ(wl.total_cores, 64);
}

}  // namespace
}  // namespace dbs::wl
