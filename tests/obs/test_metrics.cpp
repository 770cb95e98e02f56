// Tests for the metrics registry: counter/gauge/histogram semantics,
// get-or-create with stable references, kind-mismatch detection, pull-style
// gauges, and snapshot/to_json determinism.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "json_checker.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"

namespace resex::obs {
namespace {

using resex::obs::testing::JsonChecker;

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetOverwrites) {
  Gauge g;
  g.set(3.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~0ull), 64u);
}

TEST(Histogram, TracksCountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  for (const std::uint64_t v : {100u, 300u, 200u}) h.observe(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 600u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 300u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(100)), 1u);  // [64,128)
  EXPECT_EQ(h.bucket(Histogram::bucket_of(200)), 1u);  // [128,256)
  EXPECT_EQ(h.bucket(Histogram::bucket_of(300)), 1u);  // [256,512)
}

TEST(Histogram, MinHandlesZeroObservation) {
  Histogram h;
  h.observe(5);
  h.observe(0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 5u);
}

TEST(MetricsRegistry, GetOrCreateReturnsStableReference) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.add(7);
  // Register more entries to force index growth, then re-resolve.
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), std::logic_error);
  EXPECT_THROW(reg.histogram("m"), std::logic_error);
  reg.histogram("h");
  EXPECT_THROW(reg.counter("h"), std::logic_error);
}

TEST(MetricsRegistry, PullGaugeEvaluatedAtSnapshotOnly) {
  MetricsRegistry reg;
  int calls = 0;
  reg.gauge_fn("pull", [&calls] {
    ++calls;
    return 12.5;
  });
  EXPECT_EQ(calls, 0);
  const auto snap = reg.snapshot(0);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 12.5);
  EXPECT_EQ(snap.samples[0].kind, MetricKind::kGauge);
}

TEST(MetricsRegistry, PullGaugeReRegisterReplacesCallback) {
  MetricsRegistry reg;
  reg.gauge_fn("g", [] { return 1.0; });
  reg.gauge_fn("g", [] { return 2.0; });  // e.g. a re-created component
  const auto snap = reg.snapshot(0);
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 2.0);
}

TEST(MetricsRegistry, SnapshotSortedByNameAndStampsTime) {
  MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.gauge("alpha").set(2.0);
  reg.histogram("mid").observe(3);
  const auto snap = reg.snapshot(777);
  EXPECT_EQ(snap.at, 777u);
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "alpha");
  EXPECT_EQ(snap.samples[1].name, "mid");
  EXPECT_EQ(snap.samples[2].name, "zeta");
  EXPECT_EQ(snap.samples[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap.samples[1].count, 1u);
  EXPECT_EQ(snap.samples[2].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap.samples[2].value, 1.0);
}

TEST(MetricsRegistry, HistogramSampleListsNonEmptyBucketsAscending) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat");
  h.observe(1);     // bucket 1
  h.observe(1000);  // bucket 10
  h.observe(1000);
  const auto snap = reg.snapshot(0);
  ASSERT_EQ(snap.samples.size(), 1u);
  const auto& buckets = snap.samples[0].buckets;
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0], (std::pair<std::uint32_t, std::uint64_t>{1, 1}));
  EXPECT_EQ(buckets[1], (std::pair<std::uint32_t, std::uint64_t>{10, 2}));
}

TEST(MetricsToJson, ValidAndDeterministic) {
  MetricsRegistry reg;
  reg.counter("fabric.transfers").add(5);
  reg.gauge("weird \"name\"\n").set(0.25);
  reg.histogram("fabric.wire_latency_ns").observe(12345);
  const std::string a = to_json(reg.snapshot(42));
  const std::string b = to_json(reg.snapshot(42));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(JsonChecker(a).valid()) << a;
  EXPECT_NE(a.find("\"at_ns\":42"), std::string::npos);
  EXPECT_NE(a.find("\"fabric.transfers\""), std::string::npos);
  // Embeddable in larger documents: no trailing newline.
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.back(), '\n');
}

TEST(MetricsToJson, EmptySnapshotIsValid) {
  MetricsRegistry reg;
  const std::string doc = to_json(reg.snapshot(0));
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
}

TEST(MetricKindNames, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(MetricKind::kCounter), "counter");
  EXPECT_STREQ(to_string(MetricKind::kGauge), "gauge");
  EXPECT_STREQ(to_string(MetricKind::kHistogram), "histogram");
}

TEST(MetricsEmitToTracer, DisabledTracerRecordsNothing) {
  sim::Simulation sim;
  sim.metrics().counter("a").add(1);
  sim.metrics().emit_to_tracer(sim.tracer());
  std::size_t events = 0;
  sim.tracer().for_each([&](const TraceEvent&) { ++events; });
  EXPECT_EQ(events, 0u);
}

TEST(MetricsEmitToTracer, EmitsSortedCounterTracks) {
  sim::Simulation sim;
  sim.tracer().enable();
  sim.metrics().counter("z.counter").add(7);
  sim.metrics().gauge("a.gauge").set(2.5);
  sim.metrics().gauge_fn("m.pull", [] { return 4.0; });
  auto& h = sim.metrics().histogram("h.hist");
  h.observe(10);
  h.observe(30);
  sim.metrics().emit_to_tracer(sim.tracer());

  struct Rec {
    std::string name, key;
    double value;
  };
  std::vector<Rec> recs;
  sim.tracer().for_each([&](const TraceEvent& e) {
    ASSERT_EQ(e.phase, 'C');
    recs.push_back({e.name, e.a.key, e.a.value});
  });
  // Sorted by metric name; histograms contribute count + mean tracks.
  ASSERT_EQ(recs.size(), 5u);
  EXPECT_EQ(recs[0].name, "a.gauge");
  EXPECT_DOUBLE_EQ(recs[0].value, 2.5);
  EXPECT_EQ(recs[1].name, "h.hist");
  EXPECT_EQ(recs[1].key, "count");
  EXPECT_DOUBLE_EQ(recs[1].value, 2.0);
  EXPECT_EQ(recs[2].name, "h.hist");
  EXPECT_EQ(recs[2].key, "mean");
  EXPECT_DOUBLE_EQ(recs[2].value, 20.0);
  EXPECT_EQ(recs[3].name, "m.pull");
  EXPECT_DOUBLE_EQ(recs[3].value, 4.0);
  EXPECT_EQ(recs[4].name, "z.counter");
  EXPECT_DOUBLE_EQ(recs[4].value, 7.0);
}

TEST(SimulationMetrics, RegistryAccessibleAndIndependentPerSimulation) {
  sim::Simulation a;
  sim::Simulation b;
  a.metrics().counter("n").add(3);
  EXPECT_EQ(a.metrics().counter("n").value(), 3u);
  EXPECT_EQ(b.metrics().counter("n").value(), 0u);
}

}  // namespace
}  // namespace resex::obs
