#include "core/dfs_policy.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"

namespace dbs::core {
namespace {

TEST(DfsPolicy, FlagHelpers) {
  EXPECT_FALSE(has_single(DfsPolicy::None));
  EXPECT_TRUE(has_single(DfsPolicy::SingleJobDelay));
  EXPECT_FALSE(has_target(DfsPolicy::SingleJobDelay));
  EXPECT_TRUE(has_target(DfsPolicy::TargetDelay));
  EXPECT_TRUE(has_single(DfsPolicy::SingleAndTargetDelay));
  EXPECT_TRUE(has_target(DfsPolicy::SingleAndTargetDelay));
}

TEST(DfsConfig, LimitsFallBackToDefaults) {
  DfsConfig cfg;
  cfg.defaults.target_delay = Duration::seconds(500);
  cfg.user["alice"] = {true, Duration::zero(), Duration::seconds(100)};
  EXPECT_EQ(cfg.limits_of(DfsEntityKind::User, "alice").target_delay,
            Duration::seconds(100));
  EXPECT_EQ(cfg.limits_of(DfsEntityKind::User, "bob").target_delay,
            Duration::seconds(500));
  EXPECT_EQ(cfg.limits_of(DfsEntityKind::Group, "anything").target_delay,
            Duration::seconds(500));
}

TEST(DfsConfig, MapOfSelectsDimension) {
  DfsConfig cfg;
  cfg.map_of(DfsEntityKind::Group)["g"] = {false, {}, {}};
  EXPECT_FALSE(cfg.group.at("g").delay_perm);
  EXPECT_TRUE(cfg.user.empty());
}

TEST(DfsConfig, Validation) {
  DfsConfig cfg;
  cfg.interval = Duration::zero();
  EXPECT_THROW(cfg.validate(), precondition_error);
  cfg = DfsConfig{};
  cfg.decay = -0.1;
  EXPECT_THROW(cfg.validate(), precondition_error);
  cfg = DfsConfig{};
  cfg.user[""] = {};
  EXPECT_THROW(cfg.validate(), precondition_error);
  cfg = DfsConfig{};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(DfsConfig, EntityNameSelectsCredField) {
  const Credentials cred{"u", "g", "a", "c", "q"};
  EXPECT_EQ(entity_name(cred, DfsEntityKind::User), "u");
  EXPECT_EQ(entity_name(cred, DfsEntityKind::Group), "g");
  EXPECT_EQ(entity_name(cred, DfsEntityKind::Account), "a");
  EXPECT_EQ(entity_name(cred, DfsEntityKind::JobClass), "c");
  EXPECT_EQ(entity_name(cred, DfsEntityKind::Qos), "q");
}

}  // namespace
}  // namespace dbs::core
