// resex::fault coverage: plan parsing, every fault class end-to-end against
// a two-node fabric (drop/corrupt recovery by retransmission, link flaps up
// to QP death, HCA stalls, dom0 control-path delays), seed determinism, and
// the runner-level guarantee that `--faults` sweeps stay byte-identical at
// any --jobs count.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../fabric/fabric_fixture.hpp"
#include "runner/runner.hpp"

namespace resex::fault {
namespace {

using fabric::Cqe;
using fabric::CqeStatus;
using fabric::Opcode;
using fabric::QpState;
using fabric::SendWr;
using fabric::testing::Endpoint;
using fabric::testing::TwoNodeWorld;
using sim::SimTime;
using sim::Task;

// --- FaultPlan parsing -------------------------------------------------------

TEST(FaultPlan, ParsesFullGrammarAndRoundTrips) {
  const auto plan = FaultPlan::parse(
      "drop=0.01,corrupt=0.002,flap=300:150:A/up,stall=10:5:1,ctl=0:1000:500");
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.corrupt_rate, 0.002);
  ASSERT_EQ(plan.flaps.size(), 1u);
  EXPECT_EQ(plan.flaps[0].at, 300 * sim::kMillisecond);
  EXPECT_EQ(plan.flaps[0].duration, 150 * sim::kMillisecond);
  EXPECT_EQ(plan.flaps[0].channel, "A/up");
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].hca, 1);
  ASSERT_EQ(plan.control_delays.size(), 1u);
  EXPECT_EQ(plan.control_delays[0].extra, 500 * sim::kMicrosecond);
  EXPECT_TRUE(plan.any());
  // The canonical string parses back to the same canonical string.
  const auto again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());
}

TEST(FaultPlan, EmptySpecIsAValidEmptyPlan) {
  const auto plan = FaultPlan::parse("");
  EXPECT_FALSE(plan.any());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop=abc"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("flap=10"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("ctl=1:2"), std::invalid_argument);
}

// --- fabric-level fault injection --------------------------------------------

/// Post `count` plain RDMA writes back to back, recording each CQE and its
/// observation time.
Task send_many(Endpoint& src, const Endpoint& dst, int count,
               std::uint32_t length, std::vector<Cqe>& cqes,
               std::vector<SimTime>& times) {
  for (int i = 0; i < count; ++i) {
    SendWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i) + 1;
    wr.opcode = Opcode::kRdmaWrite;
    wr.local_addr = src.buf;
    wr.lkey = src.mr.lkey;
    wr.length = length;
    wr.remote_addr = dst.buf;
    wr.rkey = dst.mr.rkey;
    co_await src.verbs->post_send(*src.qp, wr);
    cqes.push_back(co_await src.verbs->next_cqe(*src.send_cq));
    times.push_back(src.domain->vcpu().simulation().now());
  }
}

struct FaultWorld : ::testing::Test {
  TwoNodeWorld world;
  std::pair<Endpoint, Endpoint> pair = world.make_connected_pair();
  Endpoint& a = pair.first;
  Endpoint& b = pair.second;
  std::unique_ptr<FaultInjector> injector;
  std::vector<Cqe> cqes;
  std::vector<SimTime> times;

  void arm(const std::string& spec, std::uint64_t seed = 42) {
    injector = std::make_unique<FaultInjector>(FaultPlan::parse(spec), seed);
    injector->arm(world.fabric, &world.node_a);
  }
  std::uint64_t retransmits() {
    return world.sim.metrics().counter("fabric.retransmits").value();
  }
  void expect_all_success() {
    for (const auto& cqe : cqes) {
      EXPECT_EQ(cqe.status, static_cast<std::uint8_t>(CqeStatus::kSuccess))
          << "wr_id " << cqe.wr_id;
    }
  }
};

TEST_F(FaultWorld, DropsAreRecoveredByRetransmission) {
  arm("drop=0.05");
  world.sim.spawn(send_many(a, b, 40, 8192, cqes, times));
  world.sim.run();
  ASSERT_EQ(cqes.size(), 40u);
  expect_all_success();
  EXPECT_GT(injector->drops_injected(), 0u);
  EXPECT_GT(retransmits(), 0u);
  EXPECT_EQ(a.qp->state(), QpState::kReadyToSend);
}

TEST_F(FaultWorld, CorruptedPacketsAreRecovered) {
  arm("corrupt=0.05");
  world.sim.spawn(send_many(a, b, 40, 8192, cqes, times));
  world.sim.run();
  ASSERT_EQ(cqes.size(), 40u);
  expect_all_success();
  EXPECT_GT(injector->corrupts_injected(), 0u);
  EXPECT_GT(retransmits(), 0u);
}

TEST_F(FaultWorld, TransientFlapDelaysButCompletes) {
  // All channels down for the first 2 ms; the 64 KB write posted at t~0 is
  // eaten whole, survives on the retransmit timer (with backoff), and lands
  // once the link is back.
  arm("flap=0:2");
  world.sim.spawn(send_many(a, b, 1, 64 * 1024, cqes, times));
  world.sim.run();
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  EXPECT_GT(times[0], 2 * sim::kMillisecond);
  EXPECT_GT(retransmits(), 0u);
  EXPECT_EQ(a.qp->state(), QpState::kReadyToSend);
}

TEST_F(FaultWorld, ExhaustedRetryBudgetErrorsQpAndFlushesLaterPosts) {
  // Link down for a full second — longer than the whole backoff ladder
  // (7 transport retries doubling from ~1 ms), so the budget must run out.
  arm("flap=0:1000");
  world.sim.spawn(send_many(a, b, 2, 4096, cqes, times));
  world.sim.run();
  ASSERT_EQ(cqes.size(), 2u);
  // First WR: transport gave up -> completion-with-error, QP dead.
  EXPECT_EQ(cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kRetryExceeded));
  EXPECT_EQ(a.qp->state(), QpState::kError);
  // Second WR posted on the dead QP: flushed, never touches the wire.
  EXPECT_EQ(cqes[1].status,
            static_cast<std::uint8_t>(CqeStatus::kWrFlushError));
  EXPECT_GT(world.sim.metrics().counter("fabric.qp_fatal_errors").value(), 0u);
}

TEST_F(FaultWorld, StallFreezesDoorbellPickup) {
  // WQE fetch frozen for 1 ms; a 1 KB write normally completes in a few us.
  arm("stall=0:1");
  world.sim.spawn(send_many(a, b, 1, 1024, cqes, times));
  world.sim.run();
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  EXPECT_GT(times[0], sim::kMillisecond);
}

Task alloc_pd_once(Endpoint& ep, SimTime& done) {
  (void)co_await ep.verbs->alloc_pd();
  done = ep.domain->vcpu().simulation().now();
}

TEST(ControlPath, DelayWindowLengthensHypercallsOnly) {
  auto alloc_time = [](const char* spec) {
    TwoNodeWorld world;
    auto pair = world.make_connected_pair();
    std::unique_ptr<FaultInjector> inj;
    if (spec != nullptr) {
      inj = std::make_unique<FaultInjector>(FaultPlan::parse(spec), 1);
      inj->arm(world.fabric, &world.node_a);
    }
    SimTime done = 0;
    world.sim.spawn(alloc_pd_once(pair.first, done));
    world.sim.run();
    return done;
  };
  const SimTime base = alloc_time(nullptr);
  const SimTime delayed = alloc_time("ctl=0:10:500");
  // The dom0 hypercall round trip grows by exactly the scripted 500 us; the
  // VMM-bypass data path is not represented in this number at all.
  EXPECT_EQ(delayed - base, 500 * sim::kMicrosecond);
}

// --- determinism -------------------------------------------------------------

struct RunFingerprint {
  std::vector<SimTime> times;
  std::uint64_t drops = 0;
  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_drop_scenario(std::uint64_t seed) {
  TwoNodeWorld world;
  auto pair = world.make_connected_pair();
  FaultInjector inj(FaultPlan::parse("drop=0.1"), seed);
  inj.arm(world.fabric, &world.node_a);
  std::vector<Cqe> cqes;
  RunFingerprint fp;
  world.sim.spawn(send_many(pair.first, pair.second, 20, 4096, cqes, fp.times));
  world.sim.run();
  fp.drops = inj.drops_injected();
  return fp;
}

TEST(FaultDeterminism, SameSeedReplaysIdentically) {
  const auto r1 = run_drop_scenario(7);
  const auto r2 = run_drop_scenario(7);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(r1.drops, 0u);
  // ...and the seed genuinely drives the fault pattern.
  const auto r3 = run_drop_scenario(8);
  EXPECT_NE(r1, r3);
}

// --- runner integration: --faults at any --jobs ------------------------------

std::vector<runner::SweepPoint> faulted_points() {
  core::ScenarioConfig base;
  base.warmup = 20 * sim::kMillisecond;
  base.duration = 100 * sim::kMillisecond;
  runner::Sweep sweep(base);
  sweep.axis("cap_pct", {100.0, 40.0},
             [](core::ScenarioConfig& c, double v) { c.intf_cap = v; });
  return sweep.points();
}

/// Run the faulted points through run_trials with the CLI overlay, keeping
/// every trial's full scenario result at [point * seeds + replicate].
struct FullRun {
  std::vector<runner::PointOutcome> outcomes;
  std::vector<core::ScenarioResult> results;
};

FullRun run_faulted(const runner::RunnerOptions& opts) {
  FullRun run;
  auto points = faulted_points();
  run.results.resize(points.size() * opts.seeds);
  std::vector<runner::GenericPoint> trials;
  for (auto& sp : points) {
    opts.apply(sp.config);
    runner::GenericPoint p;
    p.label = sp.label;
    p.seed = sp.config.seed;
    p.run = [&run, seeds = opts.seeds,
             config = sp.config](const runner::TrialContext& ctx) {
      auto cfg = config;
      ctx.apply(cfg);
      auto& result = run.results[ctx.point * seeds + ctx.replicate];
      result = core::run_scenario(cfg);
      ctx.keep(result);
      return std::vector<double>{};
    };
    trials.push_back(std::move(p));
  }
  run.outcomes = runner::run_trials(std::move(trials), opts);
  return run;
}

TEST(FaultRunner, FaultedSweepIsByteIdenticalAcrossJobCounts) {
  runner::RunnerOptions serial;
  serial.jobs = 1;
  serial.seeds = 2;
  serial.faults = "drop=0.01,flap=30:5";
  serial.metrics_path = "unused";  // turn on per-trial snapshot collection
  runner::RunnerOptions parallel = serial;
  parallel.jobs = 8;

  const auto a = run_faulted(serial);
  const auto b = run_faulted(parallel);

  ASSERT_EQ(a.results.size(), 4u);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& va = a.results[i].reporting[0];
    const auto& vb = b.results[i].reporting[0];
    EXPECT_EQ(va.requests, vb.requests);
    // Bitwise equality, not tolerance: the guarantee is identity.
    EXPECT_EQ(va.client_mean_us, vb.client_mean_us);
    EXPECT_EQ(va.client_latency_us.values(), vb.client_latency_us.values());
  }

  // The faults really fired (the snapshot carries the injector's tallies)...
  double drops = 0.0;
  for (const auto& s : a.outcomes[0].trials[0].metrics.samples) {
    if (s.name == "fault.drops_injected") drops = s.value;
  }
  EXPECT_GT(drops, 0.0);

  // ...and the exported artifacts match byte for byte.
  std::ostringstream ma, mb;
  runner::write_metrics_json(ma, a.outcomes);
  runner::write_metrics_json(mb, b.outcomes);
  EXPECT_EQ(ma.str(), mb.str());
}

TEST(FaultRunner, CliValidatesFaultSpecsEagerly) {
  const char* ok[] = {"bench", "--faults", "drop=0.01,stall=5:1"};
  const auto opts = runner::parse_options(3, ok);
  EXPECT_EQ(opts.faults, "drop=0.01,stall=5:1");
  const char* bad[] = {"bench", "--faults", "drop=2"};
  EXPECT_THROW((void)runner::parse_options(3, bad), std::invalid_argument);
}

}  // namespace
}  // namespace resex::fault
