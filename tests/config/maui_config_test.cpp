#include "config/maui_config.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/fairshare.hpp"

namespace dbs::cfg {
namespace {

// The exact configuration of the paper's Fig. 6.
constexpr const char* kFig6 = R"(
DFSPOLICY          DFSSINGLEANDTARGETDELAY
DFSINTERVAL        06:00:00
DFSDECAY           0.4
USERCFG[user01]    DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=3600 \
                   DFSSINGLEDELAYTIME=0
USERCFG[user02]    DFSDYNDELAYPERM=0
USERCFG[user03]    DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=0 \
                   DFSSINGLEDELAYTIME=00:30:00
USERCFG[user04]    DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=02:00:00 \
                   DFSSINGLEDELAYTIME=00:15:00
GROUPCFG[group05]  DFSTARGETDELAYTIME=04:00:00
GROUPCFG[group06]  DFSDYNDELAYPERM=0
)";

constexpr const char* kSchedulerKnobs = R"(
# Table II configuration
RESERVATIONDEPTH      5
RESERVATIONDELAYDEPTH 5
BACKFILL              ON
QUEUETIMEWEIGHT       1.0
XFACTORWEIGHT         0.5
RESWEIGHT             0.01
POLLINTERVAL          00:00:30
PREEMPTION            ON
MALLEABLESTEAL        ON
DYNPARTITION          8
MAXJOBSPERUSER        4
STAGETIMING           ON
ALLOCATIONPOLICY      SPREAD
)";

constexpr const char* kFairshareAndCred = R"(
FAIRSHARE   ON
FSINTERVAL  12:00:00
FSDEPTH     8
FSDECAY     0.5
FSWEIGHT    2.0
CREDWEIGHT  1.0
USERCFG[vip]   PRIORITY=1000 FSTARGET=30
GROUPCFG[hpc]  PRIORITY=50
CLASSCFG[debug] PRIORITY=-10
)";

constexpr const char* kDefaults =
    "DFSPOLICY DFSTARGETDELAY\n"
    "DFSDEFAULTCFG DFSTARGETDELAYTIME=500 DFSDYNDELAYPERM=1\n";

constexpr const char* kComments =
    "\n# full-line comment\nDFSDECAY 0.2  # trailing comment\n\n";

constexpr const char* kLowerCase =
    "dfspolicy dfstargetdelay\nusercfg[Alice] dfsdyndelayperm=0\n";

constexpr const char* kWithIssues =
    "DFSPOLICY DFSTARGETDELAY\n"
    "BOGUSKEY 42\n"
    "DFSINTERVAL notaduration\n"
    "USERCFG[u] NOT_A_PAIR\n"
    "USERCFG[ ] DFSDYNDELAYPERM=1\n";

constexpr const char* kEntityUpdates =
    "USERCFG[u] DFSTARGETDELAYTIME=100\n"
    "USERCFG[u] DFSSINGLEDELAYTIME=50\n";

// Every single-value key, every entity key of every entity kind and
// DFSDEFAULTCFG, each set to a value other than its default.
constexpr const char* kEveryKey = R"(
DFSPOLICY             DFSSINGLEJOBDELAY
DFSINTERVAL           01:30:00
DFSDECAY              0.3
RESERVATIONDEPTH      4
RESERVATIONDELAYDEPTH 6
BACKFILL              OFF
QUEUETIMEWEIGHT       2.5
XFACTORWEIGHT         0.5
RESWEIGHT             0.01
CREDWEIGHT            3
FSWEIGHT              1.5
FAIRSHARE             ON
FSINTERVAL            02:00:00
FSDEPTH               4
FSDECAY               0.7
POLLINTERVAL          45
PREEMPTION            yes
MALLEABLESTEAL        true
DYNPARTITION          8
MAXJOBSPERUSER        3
STAGETIMING           1
INCREMENTALPLANNING   off
CHECKINVARIANTS       ON
ALLOCATIONPOLICY      firstfit
USERCFG[u]    DFSDYNDELAYPERM=0 DFSSINGLEDELAYTIME=1 DFSTARGETDELAYTIME=2 \
              PRIORITY=10 FSTARGET=25
GROUPCFG[g]   DFSDYNDELAYPERM=0 DFSSINGLEDELAYTIME=3 DFSTARGETDELAYTIME=4 \
              PRIORITY=20
ACCOUNTCFG[a] DFSDYNDELAYPERM=0 DFSSINGLEDELAYTIME=5 DFSTARGETDELAYTIME=6 \
              PRIORITY=30
CLASSCFG[c]   DFSDYNDELAYPERM=0 DFSSINGLEDELAYTIME=7 DFSTARGETDELAYTIME=8 \
              PRIORITY=40
QOSCFG[q]     DFSDYNDELAYPERM=0 DFSSINGLEDELAYTIME=9 DFSTARGETDELAYTIME=10 \
              PRIORITY=50
DFSDEFAULTCFG DFSDYNDELAYPERM=0 DFSSINGLEDELAYTIME=60 DFSTARGETDELAYTIME=120
)";

TEST(MauiConfig, ParsesFig6Exactly) {
  const ParseResult r = parse_maui_config(kFig6);
  ASSERT_TRUE(r.ok()) << r.issues.front().message;
  const core::DfsConfig& dfs = r.config.dfs;
  EXPECT_EQ(dfs.policy, core::DfsPolicy::SingleAndTargetDelay);
  EXPECT_EQ(dfs.interval, Duration::hours(6));
  EXPECT_DOUBLE_EQ(dfs.decay, 0.4);

  const auto& u1 = dfs.user.at("user01");
  EXPECT_TRUE(u1.delay_perm);
  EXPECT_EQ(u1.target_delay, Duration::seconds(3600));
  EXPECT_EQ(u1.single_delay, Duration::zero());

  EXPECT_FALSE(dfs.user.at("user02").delay_perm);
  EXPECT_EQ(dfs.user.at("user03").single_delay, Duration::minutes(30));
  EXPECT_EQ(dfs.user.at("user04").target_delay, Duration::hours(2));
  EXPECT_EQ(dfs.user.at("user04").single_delay, Duration::minutes(15));
  EXPECT_EQ(dfs.group.at("group05").target_delay, Duration::hours(4));
  EXPECT_FALSE(dfs.group.at("group06").delay_perm);
}

TEST(MauiConfig, SchedulerKnobs) {
  const auto config = parse_maui_config_or_throw(kSchedulerKnobs);
  EXPECT_EQ(config.reservation_depth, 5u);
  EXPECT_EQ(config.reservation_delay_depth, 5u);
  EXPECT_TRUE(config.enable_backfill);
  EXPECT_DOUBLE_EQ(config.weights.queue_time_per_minute, 1.0);
  EXPECT_DOUBLE_EQ(config.weights.xfactor, 0.5);
  EXPECT_DOUBLE_EQ(config.weights.per_core, 0.01);
  EXPECT_EQ(config.poll_interval, Duration::seconds(30));
  EXPECT_TRUE(config.allow_preemption);
  EXPECT_TRUE(config.allow_malleable_steal);
  EXPECT_EQ(config.dynamic_partition_cores, 8);
  EXPECT_EQ(config.max_eligible_per_user, 4u);
  EXPECT_TRUE(config.stage_timing);
  EXPECT_EQ(config.allocation_policy, cluster::AllocationPolicy::Spread);
}

TEST(MauiConfig, FairshareAndCredSettings) {
  const auto config = parse_maui_config_or_throw(kFairshareAndCred);
  EXPECT_TRUE(config.fairshare.enabled);
  EXPECT_EQ(config.fairshare.interval, Duration::hours(12));
  EXPECT_EQ(config.fairshare.depth, 8u);
  EXPECT_DOUBLE_EQ(config.fairshare.user_targets.at("vip"), 30.0);
  EXPECT_DOUBLE_EQ(config.cred_priorities.user.at("vip"), 1000.0);
  EXPECT_DOUBLE_EQ(config.cred_priorities.group.at("hpc"), 50.0);
  EXPECT_DOUBLE_EQ(config.cred_priorities.job_class.at("debug"), -10.0);
}

TEST(MauiConfig, DefaultsViaDfsDefaultCfg) {
  const auto config = parse_maui_config_or_throw(kDefaults);
  EXPECT_EQ(config.dfs.defaults.target_delay, Duration::seconds(500));
  EXPECT_TRUE(config.dfs.defaults.delay_perm);
}

TEST(MauiConfig, CommentsAndBlankLines) {
  const ParseResult r = parse_maui_config(kComments);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.config.dfs.decay, 0.2);
}

TEST(MauiConfig, CaseInsensitiveKeys) {
  const ParseResult r = parse_maui_config(kLowerCase);
  ASSERT_TRUE(r.ok()) << r.issues.front().message;
  EXPECT_EQ(r.config.dfs.policy, core::DfsPolicy::TargetDelay);
  // Entity names keep their original case.
  EXPECT_FALSE(r.config.dfs.user.at("Alice").delay_perm);
}

TEST(MauiConfig, IssuesReportedWithLineNumbers) {
  const ParseResult r = parse_maui_config(kWithIssues);
  ASSERT_EQ(r.issues.size(), 4u);
  EXPECT_EQ(r.issues[0].line, 2);
  EXPECT_EQ(r.issues[1].line, 3);
  EXPECT_EQ(r.issues[2].line, 4);
  // Recognized settings before/after bad lines still applied.
  EXPECT_EQ(r.config.dfs.policy, core::DfsPolicy::TargetDelay);
}

TEST(MauiConfig, OrThrowRaisesOnIssue) {
  EXPECT_THROW((void)parse_maui_config_or_throw("BOGUS 1\n"),
               precondition_error);
}

TEST(MauiConfig, EntityUpdatesMerge) {
  const auto config = parse_maui_config_or_throw(kEntityUpdates);
  EXPECT_EQ(config.dfs.user.at("u").target_delay, Duration::seconds(100));
  EXPECT_EQ(config.dfs.user.at("u").single_delay, Duration::seconds(50));
}

TEST(MauiConfig, RenderRoundTrips) {
  const auto config = parse_maui_config_or_throw(kFig6);
  const std::string rendered = render_dfs_config(config.dfs);
  const auto reparsed = parse_maui_config_or_throw(rendered);
  EXPECT_EQ(reparsed.dfs.policy, config.dfs.policy);
  EXPECT_EQ(reparsed.dfs.interval, config.dfs.interval);
  EXPECT_EQ(reparsed.dfs.user.at("user04"), config.dfs.user.at("user04"));
  EXPECT_EQ(reparsed.dfs.group.at("group06"), config.dfs.group.at("group06"));
}

TEST(MauiConfig, EveryKeySetsItsField) {
  const ParseResult r = parse_maui_config(kEveryKey);
  ASSERT_TRUE(r.ok()) << r.issues.front().message;
  const core::SchedulerConfig& c = r.config;
  EXPECT_EQ(c.dfs.policy, core::DfsPolicy::SingleJobDelay);
  EXPECT_EQ(c.dfs.interval, Duration::minutes(90));
  EXPECT_DOUBLE_EQ(c.dfs.decay, 0.3);
  EXPECT_EQ(c.reservation_depth, 4u);
  EXPECT_EQ(c.reservation_delay_depth, 6u);
  EXPECT_FALSE(c.enable_backfill);
  EXPECT_DOUBLE_EQ(c.weights.queue_time_per_minute, 2.5);
  EXPECT_DOUBLE_EQ(c.weights.xfactor, 0.5);
  EXPECT_DOUBLE_EQ(c.weights.per_core, 0.01);
  EXPECT_DOUBLE_EQ(c.weights.cred, 3.0);
  EXPECT_DOUBLE_EQ(c.weights.fairshare, 1.5);
  EXPECT_TRUE(c.fairshare.enabled);
  EXPECT_EQ(c.fairshare.interval, Duration::hours(2));
  EXPECT_EQ(c.fairshare.depth, 4u);
  EXPECT_DOUBLE_EQ(c.fairshare.decay, 0.7);
  EXPECT_EQ(c.poll_interval, Duration::seconds(45));
  EXPECT_TRUE(c.allow_preemption);
  EXPECT_TRUE(c.allow_malleable_steal);
  EXPECT_EQ(c.dynamic_partition_cores, 8);
  EXPECT_EQ(c.max_eligible_per_user, 3u);
  EXPECT_TRUE(c.stage_timing);
  EXPECT_FALSE(c.incremental_planning);
  EXPECT_TRUE(c.check_invariants);
  EXPECT_EQ(c.allocation_policy, cluster::AllocationPolicy::FirstFit);

  const core::DfsEntityLimits defaults{false, Duration::seconds(60),
                                       Duration::seconds(120)};
  EXPECT_EQ(c.dfs.defaults, defaults);
  const std::pair<core::DfsEntityKind, const char*> entities[] = {
      {core::DfsEntityKind::User, "u"},
      {core::DfsEntityKind::Group, "g"},
      {core::DfsEntityKind::Account, "a"},
      {core::DfsEntityKind::JobClass, "c"},
      {core::DfsEntityKind::Qos, "q"}};
  for (int i = 0; i < 5; ++i) {
    const auto& [kind, name] = entities[i];
    const auto& limits = c.dfs.map_of(kind);
    ASSERT_EQ(limits.size(), 1u) << name;
    EXPECT_EQ(limits.at(name),
              (core::DfsEntityLimits{false, Duration::seconds(2 * i + 1),
                                     Duration::seconds(2 * i + 2)}))
        << name;
  }
  const core::CredPriorities& p = c.cred_priorities;
  EXPECT_EQ(p.user, (std::unordered_map<std::string, double>{{"u", 10}}));
  EXPECT_EQ(p.group, (std::unordered_map<std::string, double>{{"g", 20}}));
  EXPECT_EQ(p.account, (std::unordered_map<std::string, double>{{"a", 30}}));
  EXPECT_EQ(p.job_class,
            (std::unordered_map<std::string, double>{{"c", 40}}));
  EXPECT_EQ(p.qos, (std::unordered_map<std::string, double>{{"q", 50}}));
  EXPECT_EQ(c.fairshare.user_targets,
            (std::unordered_map<std::string, double>{{"u", 25}}));
  EXPECT_NO_THROW(c.validate());
}

TEST(MauiConfig, ValueOutOfRangeNamesKeyAndKind) {
  // One value of each kind outside its range: the issue names the key, the
  // kind and its range, and the field keeps its default.
  const std::pair<const char*, const char*> cases[] = {
      {"DYNPARTITION 4294967312",
       "DYNPARTITION expects an integer in [0, 2147483647], got "
       "'4294967312'"},
      {"FSDEPTH 0", "FSDEPTH expects an integer >= 1, got '0'"},
      {"XFACTORWEIGHT nan", "XFACTORWEIGHT expects a finite number, got 'nan'"},
      {"RESWEIGHT 1e400", "RESWEIGHT expects a finite number, got '1e400'"},
      {"DFSDECAY -5", "DFSDECAY expects a number in [0, 1], got '-5'"},
      {"POLLINTERVAL 9223372036854",
       "POLLINTERVAL expects a duration in [00:00:01, 876000:00:00], got "
       "'9223372036854'"},
      {"USERCFG[u1] DFSTARGETDELAYTIME=99999999999999999",
       "DFSTARGETDELAYTIME expects a duration in [00:00:00, 876000:00:00], "
       "got '99999999999999999'"},
      {"USERCFG[u1] PRIORITY=inf",
       "PRIORITY expects a finite number, got 'inf'"},
      {"ALLOCATIONPOLICY BEST",
       "ALLOCATIONPOLICY expects one of PACK, SPREAD, FIRSTFIT, got 'BEST'"},
      {"BACKFILL maybe",
       "BACKFILL expects one of 1, 0, ON, OFF, TRUE, FALSE, YES, NO, got "
       "'maybe'"},
  };
  const core::SchedulerConfig defaults;
  for (const auto& [text, message] : cases) {
    const ParseResult r = parse_maui_config(text);
    ASSERT_EQ(r.issues.size(), 1u) << text;
    EXPECT_EQ(r.issues[0].line, 1);
    EXPECT_EQ(r.issues[0].message, message);
    EXPECT_EQ(r.config.dynamic_partition_cores,
              defaults.dynamic_partition_cores);
    EXPECT_EQ(r.config.fairshare.depth, defaults.fairshare.depth);
    EXPECT_EQ(r.config.poll_interval, defaults.poll_interval);
    EXPECT_TRUE(r.config.cred_priorities.user.empty());
  }
}

TEST(MauiConfig, SwitchWords) {
  const std::pair<const char*, std::optional<bool>> cases[] = {
      {"1", true},    {"0", false},   {"TRUE", true},     {"off", false},
      {"Yes", true},  {"no", false},  {"2", std::nullopt}, {"", std::nullopt}};
  for (const auto& [word, expected] : cases) {
    const ParseResult r =
        parse_maui_config(std::string("DFSDEFAULTCFG DFSDYNDELAYPERM=") + word);
    EXPECT_EQ(r.ok(), expected.has_value()) << word;
    if (expected) {
      EXPECT_EQ(r.config.dfs.defaults.delay_perm, *expected);
    }
  }
}

TEST(MauiConfig, DfsPolicyWords) {
  for (const core::DfsPolicy p :
       {core::DfsPolicy::None, core::DfsPolicy::SingleJobDelay,
        core::DfsPolicy::TargetDelay, core::DfsPolicy::SingleAndTargetDelay}) {
    const ParseResult r = parse_maui_config("DFSPOLICY " +
                                            std::string(core::to_string(p)));
    ASSERT_TRUE(r.ok()) << core::to_string(p);
    EXPECT_EQ(r.config.dfs.policy, p);
  }
  EXPECT_FALSE(parse_maui_config("DFSPOLICY bogus").ok());
  // The paper uses both spellings for the combined policy.
  EXPECT_EQ(
      parse_maui_config("DFSPOLICY DFSSINGLETARGETDELAY").config.dfs.policy,
      core::DfsPolicy::SingleAndTargetDelay);
  EXPECT_EQ(parse_maui_config("DFSPOLICY none").config.dfs.policy,
            core::DfsPolicy::None);
}

// A seeded mutator over every Maui config the repository holds: Fig. 6, the
// configs above and the nine CI replays read. Whatever the bytes,
// parse_maui_config returns; a config it reports no issue for validates,
// builds a Fairshare, and holds only finite numbers and durations in
// [0, kMaxDuration]; parse_maui_config_or_throw throws only
// precondition_error.
constexpr const char* kCiReuse =
    "RESERVATIONDEPTH 5\nRESERVATIONDELAYDEPTH 5\nDFSPOLICY DFSTARGETDELAY\n"
    "DFSDEFAULTCFG DFSTARGETDELAYTIME=00:08:20\nCHECKINVARIANTS ON\n";
constexpr const char* kCiDeep = "RESERVATIONDEPTH 3\nRESERVATIONDELAYDEPTH 5\n";
constexpr const char* kCiWeighted =
    "XFACTORWEIGHT 10\nRESWEIGHT 0.01\nCREDWEIGHT 1\n"
    "USERCFG[u38] PRIORITY=50 FSTARGET=20\nUSERCFG[u7] FSTARGET=10\n"
    "FAIRSHARE ON\nFSWEIGHT 1\n";
constexpr const char* kCiCheck = "CHECKINVARIANTS ON\n";
constexpr const char* kCiRebuild = "INCREMENTALPLANNING FALSE\n";

std::vector<std::string> mutator_seeds() {
  const std::string reuse = kCiReuse;  // also CI's dfs.cfg
  const std::string deep = kCiDeep;
  const std::string weighted = kCiWeighted;
  return {kFig6,          kSchedulerKnobs,       kFairshareAndCred,
          kDefaults,      kComments,             kLowerCase,
          kWithIssues,    kEntityUpdates,        kEveryKey,
          reuse,          deep + kCiCheck,       weighted,
          weighted + kCiCheck, kCiRebuild,       deep,
          deep + kCiRebuild,   weighted + kCiRebuild};
}

/// One to three byte flips, inserts or deletes, line duplications or
/// deletions, or swaps of a value for one at or past the edge of a range.
std::string mutate(std::string text, Rng& rng) {
  static constexpr const char* kValues[] = {
      "nan", "inf", "-inf", "1e400", "-1", "0", "4294967312",
      "9223372036854775808", "99999999999999999", "9999999999999:00:00",
      "::", ""};
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  const auto line_of = [&text](std::size_t at) {
    const std::size_t begin = text.rfind('\n', at);
    const std::size_t end = text.find('\n', at);
    const std::size_t b = begin == std::string::npos ? 0 : begin + 1;
    return std::pair{b, end == std::string::npos ? text.size() : end + 1};
  };
  for (std::int64_t n = rng.next_int(1, 3); n > 0; --n) {
    if (text.empty()) text = "DFSDECAY 0.5\n";
    const std::size_t at = below(text.size());
    switch (rng.next_int(0, 5)) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1 << rng.next_int(0, 7)));
        break;
      case 1:
        text.insert(below(text.size() + 1), 1, static_cast<char>(below(256)));
        break;
      case 2:
        text.erase(at, 1);
        break;
      case 3: {
        const auto [b, e] = line_of(at);
        text.insert(b, text.substr(b, e - b));
        break;
      }
      case 4: {
        const auto [b, e] = line_of(at);
        text.erase(b, e - b);
        break;
      }
      default: {
        // Swap the first token at or after `at` that follows a blank or
        // an '=': a value, or a key of a KEY=VALUE pair.
        const auto starts_token = [&text](std::size_t i) {
          const std::string_view before = " \t=";
          const std::string_view separators = " \t\n=";
          return i > 0 && before.find(text[i - 1]) != std::string_view::npos &&
                 separators.find(text[i]) == std::string_view::npos;
        };
        std::size_t b = at;
        while (b < text.size() && !starts_token(b)) ++b;
        if (b == text.size()) break;
        const std::size_t e =
            std::min(text.find_first_of(" \t\n=", b), text.size());
        text.replace(b, e - b, kValues[below(std::size(kValues))]);
      }
    }
  }
  return text;
}

/// What the mutant `text` breaks of the parser's promises, or nothing.
std::optional<std::string> broken_promise(const std::string& text) {
  ParseResult r;
  try {
    r = parse_maui_config(text);
  } catch (const std::exception& e) {
    return std::string("parse_maui_config threw: ") + e.what();
  }
  try {
    (void)parse_maui_config_or_throw(text);
  } catch (const precondition_error&) {
  } catch (const std::exception& e) {
    return std::string("parse_maui_config_or_throw threw: ") + e.what();
  }
  if (!r.ok()) return std::nullopt;
  const core::SchedulerConfig& c = r.config;
  try {
    c.validate();
    (void)core::Fairshare(c.fairshare);
  } catch (const std::exception& e) {
    return std::string("no issue, but ") + e.what();
  }
  std::vector<double> numbers = {
      c.dfs.decay,       c.fairshare.decay,          c.weights.xfactor,
      c.weights.cred,    c.weights.queue_time_per_minute,
      c.weights.per_core, c.weights.fairshare};
  for (const auto* map :
       {&c.cred_priorities.user, &c.cred_priorities.group,
        &c.cred_priorities.account, &c.cred_priorities.job_class,
        &c.cred_priorities.qos, &c.fairshare.user_targets})
    for (const auto& [name, v] : *map) numbers.push_back(v);
  for (const double v : numbers)
    if (!std::isfinite(v)) return "no issue, but a number is not finite";
  std::vector<Duration> durations = {
      c.dfs.interval, c.fairshare.interval, c.poll_interval,
      c.dfs.defaults.single_delay, c.dfs.defaults.target_delay};
  for (const core::DfsEntityKind kind : core::kAllDfsEntityKinds)
    for (const auto& [name, limits] : c.dfs.map_of(kind)) {
      durations.push_back(limits.single_delay);
      durations.push_back(limits.target_delay);
    }
  for (const Duration d : durations)
    if (d < Duration::zero() || d > kMaxDuration)
      return "no issue, but a duration is " + d.to_hms();
  return std::nullopt;
}

TEST(MauiConfigMutator, EveryMutantParsesOrReportsItsLine) {
  const std::vector<std::string> seeds = mutator_seeds();
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    for (const std::string& original : seeds) {
      const std::string mutant = mutate(original, rng);
      const std::optional<std::string> broken = broken_promise(mutant);
      ASSERT_FALSE(broken.has_value())
          << *broken << "\nseed " << seed << ", mutant:\n" << mutant;
    }
  }
}

}  // namespace
}  // namespace dbs::cfg
