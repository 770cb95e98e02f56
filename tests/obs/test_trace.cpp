// Tests for the sim-time event tracer: ring semantics, zero-overhead-when-
// disabled recording, and the Chrome-trace / JSONL exporters (syntactic JSON
// validity checked with a small recursive-descent parser, monotone sim
// timestamps, deterministic bytes).

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_checker.hpp"
#include "sim/simulation.hpp"

namespace resex::obs {
namespace {

using resex::obs::testing::JsonChecker;
using sim::SimTime;

TEST(JsonChecker, SanityOnKnownInputs) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e4],"b":"x\n","c":null})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").valid());
  EXPECT_FALSE(JsonChecker(R"([1,2)").valid());
  EXPECT_FALSE(JsonChecker("{\"a\":1} trailing").valid());
}

// --- Tracer ring -----------------------------------------------------------

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
  SimTime clock = 0;
  Tracer t(&clock);
  EXPECT_FALSE(t.enabled());
  t.instant("x", "test");
  t.counter("x", "v", 1.0);
  t.complete("x", "test", 0, 1);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, RecordsWithSimTimestamps) {
  SimTime clock = 0;
  Tracer t(&clock);
  t.enable(16);
  clock = 42;
  t.instant("a", "test");
  clock = 99;
  t.instant("b", "test");
  ASSERT_EQ(t.size(), 2u);
  std::vector<SimTime> ts;
  t.for_each([&ts](const TraceEvent& ev) { ts.push_back(ev.ts); });
  EXPECT_EQ(ts, (std::vector<SimTime>{42, 99}));
}

TEST(Tracer, EnableRejectsZeroCapacity) {
  SimTime clock = 0;
  Tracer t(&clock);
  EXPECT_THROW(t.enable(0), std::invalid_argument);
}

TEST(Tracer, RingKeepsNewestAndCountsDropped) {
  SimTime clock = 0;
  Tracer t(&clock);
  t.enable(4);
  for (int i = 0; i < 10; ++i) {
    clock = static_cast<SimTime>(i);
    t.instant("e", "test", {"i", static_cast<double>(i)});
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  std::vector<double> kept;
  t.for_each([&kept](const TraceEvent& ev) { kept.push_back(ev.a.value); });
  EXPECT_EQ(kept, (std::vector<double>{6, 7, 8, 9}));  // oldest-to-newest
}

TEST(Tracer, SpanScopeRecordsCompleteEvent) {
  SimTime clock = 100;
  Tracer t(&clock);
  t.enable(8);
  {
    SpanScope span(t, "work", "test", {"k", 5.0});
    clock = 250;
  }
  ASSERT_EQ(t.size(), 1u);
  t.for_each([](const TraceEvent& ev) {
    EXPECT_EQ(ev.phase, 'X');
    EXPECT_EQ(ev.ts, 100u);
    EXPECT_EQ(ev.dur, 150u);
    EXPECT_STREQ(ev.name, "work");
    EXPECT_DOUBLE_EQ(ev.a.value, 5.0);
  });
}

TEST(Tracer, MacrosCompileAndGateOnEnabled) {
  SimTime clock = 0;
  Tracer t(&clock);
  {
    RESEX_TRACE_SPAN(t, "span", "test");
    RESEX_TRACE_SPAN(t, "span2", "test", {"x", 1.0});
    RESEX_TRACE_INSTANT(t, "i1", "test");
    RESEX_TRACE_INSTANT(t, "i2", "test", {"x", 1.0}, {"y", 2.0});
    RESEX_TRACE_COUNTER(t, "c", "v", 3.0);
  }
  EXPECT_EQ(t.size(), 0u);  // disabled: nothing recorded
  t.enable(16);
  {
    RESEX_TRACE_SPAN(t, "span", "test");
    RESEX_TRACE_INSTANT(t, "i1", "test", {"x", 1.0});
    RESEX_TRACE_COUNTER(t, "c", "v", 3.0);
  }
  EXPECT_EQ(t.size(), 3u);
}

TEST(Tracer, SimulationOwnsTracerOnItsClock) {
  sim::Simulation sim;
  sim.tracer().enable(32);
  sim.schedule_in(500, [&sim] { sim.tracer().instant("tick", "test"); });
  sim.run();
  ASSERT_EQ(sim.tracer().size(), 1u);
  sim.tracer().for_each(
      [](const TraceEvent& ev) { EXPECT_EQ(ev.ts, 500u); });
}

// --- exporters -------------------------------------------------------------

Tracer& sample_tracer(SimTime& clock, Tracer& t) {
  t.enable(64);
  clock = 1000;
  t.instant("start", "test");
  clock = 1500;
  t.counter("queue", "depth", 3.0);
  clock = 2750;
  t.complete("span", "test", 1200, 1550, {"bytes", 4096.0}, {"qp", 7.0});
  t.instant("end", "test", {"weird\"name\n", 1.0});
  return t;
}

TEST(TraceExport, ChromeTraceIsValidJson) {
  SimTime clock = 0;
  Tracer t(&clock);
  sample_tracer(clock, t);
  std::ostringstream os;
  write_chrome_trace(os, t);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(os.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(os.str().find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceExport, ChromeTraceTimesAreMicrosecondsWithNsPrecision) {
  SimTime clock = 0;
  Tracer t(&clock);
  t.enable(8);
  clock = 1234567;  // ns -> 1234.567 us
  t.instant("e", "test");
  std::ostringstream os;
  write_chrome_trace(os, t);
  EXPECT_NE(os.str().find("\"ts\":1234.567"), std::string::npos) << os.str();
}

TEST(TraceExport, JsonlOneValidObjectPerLine) {
  SimTime clock = 0;
  Tracer t(&clock);
  sample_tracer(clock, t);
  std::ostringstream os;
  write_trace_jsonl(os, t);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
  }
  EXPECT_EQ(lines, t.size());
  EXPECT_NE(os.str().find("\"ts_ns\":1000"), std::string::npos);
}

TEST(TraceExport, TimestampsMonotoneInRecordingOrder) {
  SimTime clock = 0;
  Tracer t(&clock);
  t.enable(256);
  for (int i = 0; i < 300; ++i) {  // wraps: retained suffix must stay sorted
    clock += static_cast<SimTime>(i % 7);
    t.instant("e", "test");
  }
  SimTime prev = 0;
  t.for_each([&prev](const TraceEvent& ev) {
    EXPECT_GE(ev.ts, prev);
    prev = ev.ts;
  });
}

TEST(TraceExport, DeterministicBytesForIdenticalEventSequences) {
  auto render = [] {
    SimTime clock = 0;
    Tracer t(&clock);
    sample_tracer(clock, t);
    std::ostringstream os;
    write_chrome_trace(os, t);
    return os.str();
  };
  EXPECT_EQ(render(), render());
}

TEST(TraceExport, SaveTracePicksFormatByExtension) {
  SimTime clock = 0;
  Tracer t(&clock);
  sample_tracer(clock, t);
  const std::string json_path = ::testing::TempDir() + "resex_trace_test.json";
  const std::string jsonl_path =
      ::testing::TempDir() + "resex_trace_test.jsonl";
  save_trace(json_path, t);
  save_trace(jsonl_path, t);
  std::stringstream json, jsonl;
  json << std::ifstream(json_path).rdbuf();
  jsonl << std::ifstream(jsonl_path).rdbuf();
  EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(jsonl.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(json.str()).valid());
  std::remove(json_path.c_str());
  std::remove(jsonl_path.c_str());
}

TEST(TraceExport, SaveTraceThrowsOnUnwritablePath) {
  SimTime clock = 0;
  Tracer t(&clock);
  t.enable(4);
  EXPECT_THROW(save_trace("/nonexistent-dir/trace.json", t),
               std::runtime_error);
}

}  // namespace
}  // namespace resex::obs
