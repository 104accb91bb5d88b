#include "common/log.hpp"

#include <gtest/gtest.h>

namespace dbs {
namespace {

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(logging::level()) {}
  ~LogLevelGuard() { logging::set_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(Log, DefaultLevelIsWarn) {
  EXPECT_EQ(logging::level(), LogLevel::Warn);
}

TEST(Log, ThresholdFiltersEvaluation) {
  LogLevelGuard guard;
  logging::set_level(LogLevel::Warn);
  int evaluations = 0;
  const auto touch = [&] {
    ++evaluations;
    return "x";
  };
  testing::internal::CaptureStderr();
  DBS_DEBUG(touch());  // below threshold: expression must not run
  DBS_WARN(touch());   // at threshold: runs and emits
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(err.find("[warn ] x"), std::string::npos);
}

TEST(Log, ParseLevelNamesCaseInsensitively) {
  EXPECT_EQ(logging::parse_level("trace"), LogLevel::Trace);
  EXPECT_EQ(logging::parse_level("DEBUG"), LogLevel::Debug);
  EXPECT_EQ(logging::parse_level("Info"), LogLevel::Info);
  EXPECT_EQ(logging::parse_level("warn"), LogLevel::Warn);
  EXPECT_EQ(logging::parse_level("warning"), LogLevel::Warn);
  EXPECT_EQ(logging::parse_level("off"), LogLevel::Off);
  EXPECT_EQ(logging::parse_level("none"), LogLevel::Off);
  EXPECT_EQ(logging::parse_level("verbose"), std::nullopt);
  EXPECT_EQ(logging::parse_level(""), std::nullopt);
}

TEST(Log, InitFromEnvAppliesDbsLogLevel) {
  LogLevelGuard guard;
  ::setenv("DBS_LOG_LEVEL", "debug", 1);
  logging::init_from_env();
  EXPECT_EQ(logging::level(), LogLevel::Debug);
  // Unknown values leave the level untouched.
  ::setenv("DBS_LOG_LEVEL", "shouting", 1);
  logging::init_from_env();
  EXPECT_EQ(logging::level(), LogLevel::Debug);
  ::unsetenv("DBS_LOG_LEVEL");
  logging::init_from_env();
  EXPECT_EQ(logging::level(), LogLevel::Debug);
}

TEST(Log, TraceLevelEmitsEverything) {
  LogLevelGuard guard;
  logging::set_level(LogLevel::Trace);
  testing::internal::CaptureStderr();
  DBS_TRACE("t" << 1);
  DBS_INFO("i" << 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[trace] t1"), std::string::npos);
  EXPECT_NE(err.find("[info ] i2"), std::string::npos);
}

}  // namespace
}  // namespace dbs
