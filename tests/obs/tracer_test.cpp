#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "json_check.hpp"
#include "obs/json.hpp"

namespace dbs::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

TEST(JsonQuote, EscapesSpecialsAndControls) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonNumber, IntegersStayIntegral) {
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
  EXPECT_EQ(json_number(0.5), "0.5");
  // Non-finite values cannot appear in JSON.
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(Tracer, DisabledWithoutSink) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  // emit without a sink is a harmless no-op.
  t.emit(TraceEvent(Time::epoch(), "sched", "noop"));
  EXPECT_EQ(t.events_emitted(), 0u);
}

TEST(Tracer, MacroSkipsEventConstructionWhenDetached) {
  int evaluations = 0;
  const auto make_name = [&] {
    ++evaluations;
    return std::string("ev");
  };
  Tracer detached;
  DBS_TRACE_EVENT(&detached,
                  TraceEvent(Time::epoch(), "sched", make_name()));
  EXPECT_EQ(evaluations, 0);
  DBS_TRACE_EVENT(nullptr, TraceEvent(Time::epoch(), "sched", make_name()));
  EXPECT_EQ(evaluations, 0);

  std::ostringstream os;
  Tracer attached;
  attached.attach_stream(os, TraceFormat::Jsonl);
  DBS_TRACE_EVENT(&attached,
                  TraceEvent(Time::epoch(), "sched", make_name()));
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(attached.events_emitted(), 1u);
}

TEST(Tracer, JsonlEveryLineIsValidJson) {
  std::ostringstream os;
  Tracer t;
  t.attach_stream(os, TraceFormat::Jsonl);
  t.emit(TraceEvent(Time::from_seconds(1), "sched", "iteration")
             .field("n", 3)
             .field("wall_us", 12.5)
             .field("drain", false)
             .field("user", "al\"ice")
             .field_json("delays", "[{\"job\": 1, \"delay_s\": 2.5}]"));
  t.emit(TraceEvent(Time::from_seconds(2), "rms", "span")
             .duration(Duration::seconds(3)));
  t.close();

  const std::vector<std::string> lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines)
    EXPECT_TRUE(test::json::is_valid(line)) << line;
  EXPECT_NE(lines[0].find("\"t_us\": 1000000"), std::string::npos);
  EXPECT_NE(lines[0].find("\"cat\": \"sched\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\": \"iteration\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"delays\": [{\"job\": 1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"dur_us\": 3000000"), std::string::npos);
}

TEST(Tracer, ChromeOutputIsOneValidJsonDocument) {
  std::ostringstream os;
  Tracer t;
  t.attach_stream(os, TraceFormat::Chrome);
  t.emit(TraceEvent(Time::from_seconds(1), "sched", "instant")
             .field("job", 7));
  t.emit(TraceEvent(Time::from_seconds(2), "sched", "span")
             .duration(Duration::millis(50)));
  t.close();

  const std::string doc = os.str();
  EXPECT_TRUE(test::json::is_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\": ["), std::string::npos);
  // Instant events carry phase "i" + scope, spans phase "X" + dur.
  EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"s\": \"g\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"dur\": 50000"), std::string::npos);
}

TEST(Tracer, ChromeEmptyTraceStillValid) {
  // close() without events: header was never written, nothing to finalize.
  std::ostringstream os;
  Tracer t;
  t.attach_stream(os, TraceFormat::Chrome);
  t.close();
  EXPECT_TRUE(os.str().empty());
}

TEST(Tracer, ClockDefaultsToEpochUntilWired) {
  Tracer t;
  EXPECT_EQ(t.now(), Time::epoch());
  Time current = Time::from_seconds(90);
  t.set_clock([&current] { return current; });
  EXPECT_EQ(t.now(), Time::from_seconds(90));
  current = Time::from_seconds(120);
  EXPECT_EQ(t.now(), Time::from_seconds(120));
}

TEST(Tracer, OpenWritesFileAndCloseFinalizes) {
  const std::string path = ::testing::TempDir() + "dbs_tracer_test.jsonl";
  Tracer t;
  ASSERT_TRUE(t.open(path, TraceFormat::Jsonl));
  EXPECT_TRUE(t.enabled());
  t.emit(TraceEvent(Time::epoch(), "sched", "e"));
  t.close();
  EXPECT_FALSE(t.enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(test::json::is_valid(line)) << line;
  std::remove(path.c_str());
}

TEST(Tracer, OpenFailsOnBadPath) {
  Tracer t;
  EXPECT_FALSE(t.open("/nonexistent-dir-zzz/x.jsonl", TraceFormat::Jsonl));
  EXPECT_FALSE(t.enabled());
}

}  // namespace
}  // namespace dbs::obs
