// The dynamic ESP workload must reproduce Table I exactly.
#include "workload/esp.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/assert.hpp"

namespace dbs::wl {
namespace {

TEST(EspTable, HasTheFourteenTypes) {
  const auto& table = esp_table();
  ASSERT_EQ(table.size(), 14u);
  int total_jobs = 0;
  for (const auto& t : table) total_jobs += t.count;
  EXPECT_EQ(total_jobs, 230);  // the ESP benchmark job count
}

TEST(EspTable, EvolvingTypesMatchPaper) {
  for (const auto& t : esp_table()) {
    const bool expected = t.letter == 'F' || t.letter == 'G' ||
                          t.letter == 'H' || t.letter == 'I' || t.letter == 'J';
    EXPECT_EQ(t.evolving, expected) << t.letter;
    if (t.evolving) {
      EXPECT_EQ(t.user, "user06");
    }
  }
}

TEST(EspTable, SizesOn128Cores) {
  const std::map<char, CoreCount> expected = {
      {'A', 4},  {'B', 8},  {'C', 64}, {'D', 32}, {'E', 64},
      {'F', 8},  {'G', 16}, {'H', 20}, {'I', 4},  {'J', 8},
      {'K', 12}, {'L', 16}, {'M', 32}, {'Z', 128}};
  for (const auto& t : esp_table())
    EXPECT_EQ(esp_cores(t, 128), expected.at(t.letter)) << t.letter;
}

TEST(EspTable, MinimumOneCore) {
  const EspJobType tiny{'T', 0.001, 1, "u", Duration::seconds(1), false,
                        Duration::zero()};
  EXPECT_EQ(esp_cores(tiny, 128), 1);
}

TEST(ModelDet, ReproducesTableOneDetValues) {
  // DET = SET * S / (S + 4) — must round to the paper's numbers.
  const std::map<char, std::int64_t> paper_det = {
      {'F', 1230}, {'G', 1067}, {'I', 716}, {'J', 483}};
  for (const auto& t : esp_table()) {
    if (!t.evolving || t.letter == 'H') continue;  // H's rounding ambiguous
    const Duration det = model_det(t.set, esp_cores(t, 128), 4);
    EXPECT_NEAR(det.as_seconds(), static_cast<double>(paper_det.at(t.letter)),
                1.0)
        << t.letter;
  }
  // H with fraction*128 = 20.25 -> 20 cores gives ~889s (paper: 896, which
  // matches 21 cores); within 1% either way.
  const auto& h = esp_table()[7];
  ASSERT_EQ(h.letter, 'H');
  EXPECT_NEAR(model_det(h.set, 20, 4).as_seconds(), 896.0, 8.0);
}

TEST(GenerateEsp, CompositionAndCounts) {
  const Workload wl = generate_esp(EspParams{});
  EXPECT_EQ(wl.jobs.size(), 230u);
  EXPECT_EQ(wl.evolving_count(), 69u);  // 30% evolving
  EXPECT_EQ(wl.rigid_count(), 161u);
  EXPECT_EQ(wl.total_cores, 128);
}

TEST(GenerateEsp, StaticVariantHasNoEvolvingJobs) {
  EspParams p;
  p.evolving_enabled = false;
  const Workload wl = generate_esp(p);
  EXPECT_EQ(wl.evolving_count(), 0u);
  EXPECT_EQ(wl.jobs.size(), 230u);
}

TEST(GenerateEsp, SubmissionSchedule) {
  const EspParams p;
  const Workload wl = generate_esp(p);
  // First 50 at t=0.
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(wl.jobs[i].at, Time::epoch()) << i;
  // Then one every 30s.
  for (std::size_t i = 50; i < 228; ++i)
    EXPECT_EQ(wl.jobs[i].at,
              Time::epoch() + Duration::seconds(30) *
                                  static_cast<std::int64_t>(i - 49))
        << i;
  // Z jobs 30 minutes after the last submission.
  const Time last = wl.jobs[227].at;
  EXPECT_EQ(wl.jobs[228].at, last + Duration::minutes(30));
  EXPECT_TRUE(wl.jobs[228].spec.exclusive_priority);
  EXPECT_TRUE(wl.jobs[229].spec.exclusive_priority);
  EXPECT_EQ(wl.jobs[228].spec.cores, 128);
}

TEST(GenerateEsp, DeterministicPerSeedAndShuffled) {
  const Workload a = generate_esp(EspParams{});
  const Workload b = generate_esp(EspParams{});
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_EQ(a.jobs[i].spec.name, b.jobs[i].spec.name);

  EspParams other;
  other.seed = 99;
  const Workload c = generate_esp(other);
  bool differs = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    differs |= a.jobs[i].spec.name != c.jobs[i].spec.name;
  EXPECT_TRUE(differs);
}

TEST(GenerateEsp, EvolvingBehaviorParameters) {
  const Workload wl = generate_esp(EspParams{});
  for (const auto& j : wl.jobs) {
    if (!j.behavior.evolving) continue;
    EXPECT_DOUBLE_EQ(j.behavior.first_ask_frac, 0.16);
    EXPECT_DOUBLE_EQ(j.behavior.retry_frac, 0.25);
    EXPECT_EQ(j.behavior.ask_cores, 4);
  }
}

TEST(GenerateEsp, WalltimeFactorApplies) {
  EspParams p;
  p.walltime_factor = 1.5;
  const Workload wl = generate_esp(p);
  for (const auto& j : wl.jobs)
    EXPECT_EQ(j.spec.walltime, j.behavior.static_runtime.scaled(1.5));
  p.walltime_factor = 0.9;
  EXPECT_THROW((void)generate_esp(p), precondition_error);
}

TEST(GenerateEsp, SmallerMachineScalesSizes) {
  EspParams p;
  p.total_cores = 120;  // the paper's 15-node cluster
  const Workload wl = generate_esp(p);
  for (const auto& j : wl.jobs) {
    if (j.spec.type_tag == "Z") {
      EXPECT_EQ(j.spec.cores, 120);
    }
    if (j.spec.type_tag == "A") {
      EXPECT_EQ(j.spec.cores, 4);  // round(3.75)
    }
  }
}

}  // namespace
}  // namespace dbs::wl
