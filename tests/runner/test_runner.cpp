// Unit + end-to-end coverage for resex::runner: sweep grids, seed-derived
// replication, aggregate statistics, CLI parsing, and the subsystem's core
// guarantee — a parallel run (jobs=8) produces per-trial results identical
// to a serial run (jobs=1), down to the exported JSON bytes.

#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "cluster/scenario.hpp"
#include "core/testbed.hpp"
#include "sim/rng.hpp"

namespace resex::runner {
namespace {

using namespace resex::sim::literals;

TEST(Sweep, CartesianGridOrderAndLabels) {
  core::ScenarioConfig base;
  Sweep sweep(base);
  sweep.axis("a", {1.0, 2.0},
             [](core::ScenarioConfig& c, double v) { c.intf_cap = v; });
  sweep.axis("b", {{"x", [](core::ScenarioConfig& c) { c.intf_depth = 7; }},
                   {"y", [](core::ScenarioConfig& c) { c.intf_depth = 9; }}});
  sweep.point("base",
              [](core::ScenarioConfig& c) { c.with_interferer = false; });

  const auto pts = sweep.points();
  ASSERT_EQ(pts.size(), 5u);
  // Row-major, later axes fastest.
  EXPECT_EQ(pts[0].label, "a=1,b=x");
  EXPECT_EQ(pts[1].label, "a=1,b=y");
  EXPECT_EQ(pts[2].label, "a=2,b=x");
  EXPECT_EQ(pts[3].label, "a=2,b=y");
  EXPECT_EQ(pts[4].label, "base");
  EXPECT_DOUBLE_EQ(pts[2].config.intf_cap, 2.0);
  EXPECT_EQ(pts[1].config.intf_depth, 9u);
  ASSERT_EQ(pts[0].params.size(), 2u);
  EXPECT_EQ(pts[0].params[0].name, "a");
  EXPECT_EQ(pts[0].params[0].value, "1");
  EXPECT_FALSE(pts[4].config.with_interferer);
}

TEST(Sweep, SingleAxisLabelsOmitTheName) {
  Sweep sweep{core::ScenarioConfig{}};
  sweep.axis("cap_pct", {100.0, 3.125},
             [](core::ScenarioConfig& c, double v) { c.intf_cap = v; });
  const auto pts = sweep.points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].label, "100");
  EXPECT_EQ(pts[1].label, "3.125");
}

TEST(Rng, DeriveIsDeterministicAndSplits) {
  EXPECT_EQ(sim::derive(1, 0), sim::derive(1, 0));
  EXPECT_NE(sim::derive(1, 0), sim::derive(1, 1));
  EXPECT_NE(sim::derive(1, 0), sim::derive(2, 0));
  // Matches the Rng::stream construction (single source of truth).
  sim::Rng a = sim::Rng::stream(42, 3);
  sim::Rng b{sim::derive(42, 3)};
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Aggregate, KnownValues) {
  const auto a = aggregate({10.0, 12.0, 14.0, 16.0, 18.0});
  EXPECT_EQ(a.n, 5u);
  EXPECT_DOUBLE_EQ(a.mean, 14.0);
  EXPECT_NEAR(a.stddev, std::sqrt(10.0), 1e-12);  // sample variance 10
  EXPECT_DOUBLE_EQ(a.p50, 14.0);
  EXPECT_NEAR(a.p99, 18.0, 0.1);
  // t(df=4, 95%) = 2.776; half-width = t * s / sqrt(n).
  EXPECT_NEAR(a.ci95, 2.776 * std::sqrt(10.0) / std::sqrt(5.0), 1e-9);
}

TEST(Aggregate, SingleSampleHasNoSpread) {
  const auto a = aggregate({7.5});
  EXPECT_EQ(a.n, 1u);
  EXPECT_DOUBLE_EQ(a.mean, 7.5);
  EXPECT_DOUBLE_EQ(a.stddev, 0.0);
  EXPECT_DOUBLE_EQ(a.ci95, 0.0);
}

TEST(Options, ParsesTheFullSurface) {
  const char* argv[] = {"bench",  "--jobs", "4",      "--seeds",
                        "3",      "--seed", "99",     "--json",
                        "out.json", "--csv", "out.csv"};
  const auto opts = parse_options(11, argv);
  EXPECT_EQ(opts.jobs, 4u);
  EXPECT_EQ(opts.seeds, 3u);
  ASSERT_TRUE(opts.seed.has_value());
  EXPECT_EQ(*opts.seed, 99u);
  EXPECT_EQ(opts.json_path, "out.json");
  EXPECT_EQ(opts.csv_path, "out.csv");
  EXPECT_FALSE(opts.help);
}

TEST(Options, CongestionFlagsOverlayTheTrialConfig) {
  // The flags replace the knobs they name and keep the rest of the trial's
  // own config; --pool-alpha turns --buf-bytes into the pool size.
  congestion::CongestionConfig base;
  base.buffer_bytes = 4096;
  base.pool_bytes = 8192;
  base.dcqcn.alpha_g = 0.5;
  const char* pool_argv[] = {"bench",        "--buf-bytes", "65536",
                             "--pool-alpha", "2",           "--pfc"};
  const auto pooled = parse_options(6, pool_argv).congestion_config(base);
  EXPECT_EQ(pooled.pool_bytes, 65536u);
  EXPECT_DOUBLE_EQ(pooled.pool_alpha, 2.0);
  EXPECT_EQ(pooled.buffer_bytes, 4096u);
  EXPECT_TRUE(pooled.pfc);
  EXPECT_FALSE(pooled.rate_control);
  EXPECT_DOUBLE_EQ(pooled.dcqcn.alpha_g, 0.5);

  const char* ecn_argv[] = {"bench", "--buf-pkts", "64", "--ecn-kmin", "5",
                            "--ecn-kmax", "20"};
  const auto marked = parse_options(7, ecn_argv).congestion_config(base);
  EXPECT_EQ(marked.buffer_pkts, 64u);
  EXPECT_EQ(marked.ecn_kmin, 5u);
  EXPECT_EQ(marked.ecn_kmax, 20u);
  EXPECT_TRUE(marked.rate_control);  // marking comes with DCQCN
  EXPECT_EQ(marked.buffer_bytes, 0u);
  EXPECT_EQ(marked.pool_bytes, 8192u);
  EXPECT_FALSE(marked.pfc);
}

TEST(Options, EqualsSyntaxAndErrors) {
  const char* ok[] = {"bench", "--jobs=8", "--seeds=2"};
  const auto opts = parse_options(3, ok);
  EXPECT_EQ(opts.jobs, 8u);
  EXPECT_EQ(opts.seeds, 2u);

  const char* unknown[] = {"bench", "--frobnicate"};
  EXPECT_THROW((void)parse_options(2, unknown), std::invalid_argument);
  const char* badint[] = {"bench", "--jobs", "many"};
  EXPECT_THROW((void)parse_options(3, badint), std::invalid_argument);
  const char* zero[] = {"bench", "--seeds", "0"};
  EXPECT_THROW((void)parse_options(3, zero), std::invalid_argument);
  const char* missing[] = {"bench", "--json"};
  EXPECT_THROW((void)parse_options(2, missing), std::invalid_argument);
}

TEST(Options, RejectsFlagsTheProgramDoesNotRead) {
  constexpr std::string_view reads[] = {"--buf-pkts", "--ecmp-seed"};
  const char* read[] = {"bench", "--jobs", "2", "--buf-pkts", "32"};
  EXPECT_EQ(parse_options(5, read, reads).buf_pkts, 32u);

  const char* unread[] = {"bench", "--faults", "drop=0.01"};
  try {
    (void)parse_options(3, unread, reads);
    FAIL() << "--faults is not read, so it must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--faults is not used by this bench");
  }
  // Every flag is read when the program lists none.
  EXPECT_EQ(parse_options(3, unread).faults, "drop=0.01");

  // --ecmp-seed needs a multipath --routing only where --routing is read.
  const char* seed_only[] = {"bench", "--ecmp-seed", "7"};
  EXPECT_EQ(parse_options(3, seed_only, reads).routing.ecmp_seed, 7u);
  EXPECT_THROW((void)parse_options(3, seed_only), std::invalid_argument);
}

// --- the determinism guarantee ---------------------------------------------

std::vector<Metric> tiny_metrics() {
  return {
      {"total_us",
       [](const core::ScenarioResult& r) { return r.reporting[0].total_us; }},
      {"client_us",
       [](const core::ScenarioResult& r) {
         return r.reporting[0].client_mean_us;
       }},
      {"requests",
       [](const core::ScenarioResult& r) {
         return static_cast<double>(r.reporting[0].requests);
       }},
      {"intf_MBps",
       [](const core::ScenarioResult& r) { return r.interferer_mbps; }},
  };
}

Sweep tiny_sweep() {
  core::ScenarioConfig base;
  base.warmup = 20 * sim::kMillisecond;
  base.duration = 100 * sim::kMillisecond;
  Sweep sweep(base);
  sweep.axis("cap_pct", {100.0, 40.0},
             [](core::ScenarioConfig& c, double v) { c.intf_cap = v; });
  return sweep;
}

/// Run sweep points through run_trials, keeping every trial's full scenario
/// result at [point * seeds + replicate] next to the outcomes.
struct FullRun {
  std::vector<PointOutcome> outcomes;
  std::vector<core::ScenarioResult> results;
};

FullRun run_full(std::vector<SweepPoint> points, const RunnerOptions& opts) {
  FullRun run;
  run.results.resize(points.size() * opts.seeds);
  std::vector<GenericPoint> trials;
  for (auto& sp : points) {
    opts.apply(sp.config);
    GenericPoint p;
    p.label = sp.label;
    p.params = sp.params;
    p.seed = sp.config.seed;
    p.run = [&run, seeds = opts.seeds,
             config = sp.config](const TrialContext& ctx) {
      auto cfg = config;
      ctx.apply(cfg);
      auto& result = run.results[ctx.point * seeds + ctx.replicate];
      result = core::run_scenario(cfg);
      ctx.keep(result);
      return std::vector<double>{result.reporting[0].total_us};
    };
    trials.push_back(std::move(p));
  }
  run.outcomes = run_trials(std::move(trials), opts);
  return run;
}

TEST(Determinism, ParallelRunMatchesSerialRunPerTrial) {
  RunnerOptions serial;
  serial.jobs = 1;
  serial.seeds = 3;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;

  const auto a = run_full(tiny_sweep().points(), serial);
  const auto b = run_full(tiny_sweep().points(), parallel);

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  ASSERT_EQ(a.results.size(), 2u * 3u);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t p = 0; p < a.outcomes.size(); ++p) {
    ASSERT_EQ(a.outcomes[p].trials.size(), 3u);
    ASSERT_EQ(b.outcomes[p].trials.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(a.outcomes[p].trials[r].seed, b.outcomes[p].trials[r].seed);
    }
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& ta = a.results[i];
    const auto& tb = b.results[i];
    ASSERT_EQ(ta.reporting.size(), tb.reporting.size());
    for (std::size_t v = 0; v < ta.reporting.size(); ++v) {
      const auto& va = ta.reporting[v];
      const auto& vb = tb.reporting[v];
      EXPECT_EQ(va.requests, vb.requests);
      // Bitwise equality, not tolerance: the guarantee is identity.
      EXPECT_EQ(va.total_us, vb.total_us);
      EXPECT_EQ(va.client_mean_us, vb.client_mean_us);
      EXPECT_EQ(va.client_p99_us, vb.client_p99_us);
      EXPECT_EQ(va.ptime_us, vb.ptime_us);
      EXPECT_EQ(va.wtime_us, vb.wtime_us);
      EXPECT_EQ(va.ctime_us, vb.ctime_us);
      EXPECT_EQ(va.client_latency_us.values(), vb.client_latency_us.values());
    }
    EXPECT_EQ(ta.interferer_mbps, tb.interferer_mbps);
  }

  // ...and so do the exported bytes.
  const auto metrics = tiny_metrics();
  std::vector<std::string> names;
  for (const auto& m : metrics) names.push_back(m.name);
  const ResultSink sink(names);
  std::ostringstream ja, jb;
  sink.write_json(ja, run_trials(scenario_points(tiny_sweep().points(),
                                                 metrics, serial),
                                 serial));
  sink.write_json(jb, run_trials(scenario_points(tiny_sweep().points(),
                                                 metrics, parallel),
                                 parallel));
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(RunTrials, ReplicatesWithDerivedSeeds) {
  core::ScenarioConfig base;
  base.warmup = 20 * sim::kMillisecond;
  base.duration = 60 * sim::kMillisecond;
  base.seed = 7;
  SweepPoint point;
  point.label = "p";
  point.config = base;
  RunnerOptions opts;
  opts.jobs = 4;
  opts.seeds = 3;

  const auto run = run_full({point}, opts);
  ASSERT_EQ(run.outcomes.size(), 1u);
  ASSERT_EQ(run.outcomes[0].trials.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(run.outcomes[0].trials[r].point, 0u);
    EXPECT_EQ(run.outcomes[0].trials[r].replicate, r);
    EXPECT_EQ(run.outcomes[0].trials[r].seed, sim::derive(7, r));
  }
  // Different seeds -> genuinely different samples (replication is real).
  EXPECT_NE(run.results[0].reporting[0].client_mean_us,
            run.results[1].reporting[0].client_mean_us);
}

TEST(RunTrials, GenericPointsRunAndAggregate) {
  GenericPoint p;
  p.label = "g";
  p.seed = 5;
  p.run = [](const TrialContext& ctx) {
    return std::vector<double>{static_cast<double>(ctx.seed % 1000), 1.0};
  };
  RunnerOptions opts;
  opts.jobs = 4;
  opts.seeds = 4;
  const auto outcomes = run_trials({p}, opts);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].trials.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(outcomes[0].trials[r].seed, sim::derive(5, r));
    EXPECT_DOUBLE_EQ(outcomes[0].trials[r].values[0],
                     static_cast<double>(sim::derive(5, r) % 1000));
  }
  const ResultSink sink({"m0", "m1"});
  const auto aggs = sink.aggregates(outcomes);
  ASSERT_EQ(aggs.size(), 1u);
  ASSERT_EQ(aggs[0].size(), 2u);
  EXPECT_EQ(aggs[0][1].n, 4u);
  EXPECT_DOUBLE_EQ(aggs[0][1].mean, 1.0);
  EXPECT_DOUBLE_EQ(aggs[0][1].ci95, 0.0);  // zero spread
}

TEST(RunTrials, StartsNoMoreWorkersThanTrials) {
  RunnerOptions opts;
  opts.jobs = 8;
  EXPECT_EQ(trial_workers(opts, 2), 2u);
  EXPECT_EQ(trial_workers(opts, 20), 8u);
  EXPECT_EQ(trial_workers(opts, 0), 1u);
  opts.jobs = 1;
  EXPECT_EQ(trial_workers(opts, 2), 1u);

  // Two trials at --jobs 8: while they run, the process holds the calling
  // thread and two workers, not eight.
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) GTEST_SKIP() << "no per-thread listing";
  GenericPoint p;
  p.label = "threads";
  p.run = [&tasks](const TrialContext&) {
    const auto it = std::filesystem::directory_iterator(tasks);
    return std::vector<double>{static_cast<double>(
        std::distance(begin(it), end(it)))};
  };
  opts.jobs = 8;
  opts.seeds = 2;
  const auto outcomes = run_trials({p}, opts);
  for (const auto& trial : outcomes[0].trials) {
    EXPECT_LE(trial.values[0], 3.0) << "threads while a trial ran";
  }
}

TEST(ResultSink, TableShapesFollowReplication) {
  const ResultSink sink({"m"});
  PointOutcome one;
  one.label = "a";
  one.trials.resize(1);
  one.trials[0].values = {3.0};
  const auto t1 = sink.table({one});
  EXPECT_EQ(t1.columns(), (std::vector<std::string>{"point", "m"}));

  PointOutcome many = one;
  many.trials.resize(2);
  many.trials[1].values = {5.0};
  const auto t2 = sink.table({many});
  EXPECT_EQ(t2.columns(), (std::vector<std::string>{"point", "m", "m_ci95"}));
  ASSERT_EQ(t2.row_count(), 1u);
  EXPECT_DOUBLE_EQ(std::get<double>(t2.row(0)[1]), 4.0);
}

TEST(Options, ParsesObservabilityFlags) {
  const char* argv[] = {"bench", "--trace", "t.json", "--metrics-json",
                        "m.json"};
  const auto opts = parse_options(5, argv);
  EXPECT_EQ(opts.trace_path, "t.json");
  EXPECT_EQ(opts.metrics_path, "m.json");
  const char* missing[] = {"bench", "--trace"};
  EXPECT_THROW((void)parse_options(2, missing), std::invalid_argument);
}

TEST(TrialTracePath, DerivesPerTrialNames) {
  // Trial (0,0) gets the base path verbatim, so the documented
  // "--trace out.json" file always exists.
  EXPECT_EQ(trial_trace_path("out.json", 0, 0), "out.json");
  EXPECT_EQ(trial_trace_path("out.json", 1, 0), "out.p1r0.json");
  EXPECT_EQ(trial_trace_path("out.json", 0, 2), "out.p0r2.json");
  EXPECT_EQ(trial_trace_path("t.jsonl", 3, 4), "t.p3r4.jsonl");
  // No extension: append. A dot in a parent directory is not an extension.
  EXPECT_EQ(trial_trace_path("trace", 1, 1), "trace.p1r1");
  EXPECT_EQ(trial_trace_path("a.dir/trace", 1, 1), "a.dir/trace.p1r1");
  // Empty base means tracing is off for every trial.
  EXPECT_EQ(trial_trace_path("", 1, 1), "");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A hand-built trial: a bare testbed pair attached through its context.
GenericPoint hand_built_point() {
  GenericPoint p;
  p.label = "hand-built";
  p.seed = 3;
  p.run = [](const TrialContext& ctx) {
    core::Testbed tb;
    auto observer = ctx.observe(tb.sim());
    auto& pair = tb.deploy_pair(
        core::reporting_config(64 * 1024, 2000.0, ctx.seed), "rep");
    observer.start();
    tb.sim().run_until(40 * sim::kMillisecond);
    observer.finish();
    return std::vector<double>{pair.client_metrics().latency_us.mean()};
  };
  return p;
}

/// A small cluster scenario run as one trial.
GenericPoint cluster_point() {
  cluster::ClusterScenarioConfig config;
  config.nodes = 4;
  config.warmup = 10 * sim::kMillisecond;
  config.duration = 40 * sim::kMillisecond;
  config.sla_limit_us = 100.0;
  config.baseline_total_us = 50.0;
  GenericPoint p;
  p.label = "cluster";
  p.seed = config.seed;
  p.run = [config](const TrialContext& ctx) {
    auto cfg = config;
    ctx.apply(cfg);
    auto r = cluster::run_cluster_scenario(cfg);
    ctx.keep(r);
    return std::vector<double>{r.violation_pct};
  };
  return p;
}

TEST(Determinism, TraceFilesIdenticalAcrossJobCounts) {
  // The whole point of per-trial trace files: `--trace` output must be
  // byte-identical no matter how many workers ran the sweep.
  auto run_with = [](std::size_t jobs, const std::string& base) {
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.seeds = 2;
    opts.trace_path = base;
    core::ScenarioConfig cfg;
    cfg.warmup = 20 * sim::kMillisecond;
    cfg.duration = 60 * sim::kMillisecond;
    Sweep sweep(cfg);
    sweep.axis("cap_pct", {100.0, 40.0},
               [](core::ScenarioConfig& c, double v) { c.intf_cap = v; });
    (void)run_trials(scenario_points(sweep.points(), tiny_metrics(), opts),
                     opts);
  };
  const std::string dir = ::testing::TempDir();
  run_with(1, dir + "serial.json");
  run_with(8, dir + "parallel.json");

  for (const char* suffix : {"", ".p0r1", ".p1r0", ".p1r1"}) {
    const std::string serial =
        dir + "serial" + (*suffix != '\0' ? std::string(suffix) : "") +
        ".json";
    const std::string parallel =
        dir + "parallel" + (*suffix != '\0' ? std::string(suffix) : "") +
        ".json";
    const std::string a = slurp(serial);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(parallel)) << suffix;
    std::remove(serial.c_str());
    std::remove(parallel.c_str());
  }

  // A hand-built trial and a cluster scenario trial observe themselves
  // through the same context: traces (with counter tracks) and the metrics
  // document, periodic series included, match at any --jobs.
  auto observed = [&dir](std::size_t jobs, const std::string& name) {
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.seeds = 2;
    opts.trace_path = dir + name + ".json";
    opts.metrics_path = "unused";  // collection is keyed off this being set
    opts.metrics_period_ms = 10.0;
    std::ostringstream os;
    write_metrics_json(os, run_trials({hand_built_point(), cluster_point()},
                                      opts));
    return os.str();
  };
  const std::string ma = observed(1, "obs1");
  EXPECT_EQ(ma, observed(4, "obs4"));
  EXPECT_NE(ma.find("\"series\":["), std::string::npos);
  EXPECT_NE(ma.find("cluster.migration_bytes"), std::string::npos);
  for (const char* suffix : {"", ".p0r1", ".p1r0", ".p1r1"}) {
    const std::string a = dir + "obs1" + suffix + ".json";
    const std::string b = dir + "obs4" + suffix + ".json";
    const std::string trace = slurp(a);
    EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos) << suffix;
    EXPECT_EQ(trace, slurp(b)) << suffix;
    std::remove(a.c_str());
    std::remove(b.c_str());
  }
}

TEST(Metrics, SnapshotCollectedPerTrialAndExported) {
  RunnerOptions opts;
  opts.jobs = 2;
  opts.seeds = 1;
  opts.metrics_path = "unused";  // collection is keyed off this being set
  core::ScenarioConfig cfg;
  cfg.warmup = 20 * sim::kMillisecond;
  cfg.duration = 60 * sim::kMillisecond;
  Sweep sweep(cfg);
  sweep.point("only", [](core::ScenarioConfig&) {});
  const auto outcomes =
      run_trials(scenario_points(sweep.points(), tiny_metrics(), opts), opts);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].trials.size(), 1u);
  const auto& snap = outcomes[0].trials[0].metrics;
  EXPECT_FALSE(snap.samples.empty());
  auto has = [&snap](const std::string& name) {
    for (const auto& s : snap.samples) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("fabric.transfers"));
  EXPECT_TRUE(has("fabric.wire_latency_ns"));

  std::ostringstream os;
  write_metrics_json(os, outcomes);
  EXPECT_NE(os.str().find("\"schema\":\"resex.metrics/v1\""),
            std::string::npos);
  EXPECT_NE(os.str().find("fabric.transfers"), std::string::npos);
}

}  // namespace
}  // namespace resex::runner
