// resex::collective suite: exact elementwise-sum property for ring
// all-reduce under random sizes/chunkings, recursive-doubling all-gather and
// binomial broadcast correctness, the 2*S*(N-1)/N wire-byte closed form,
// byte-identical step ordering across --jobs counts, the stalled-ring
// regression (a mid-collective link flap must terminate through the RC retry
// budget with flushed QPs, not wedge the step barrier), and the broker's io
// price tracking collective phases.

#include "collective/collective.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "cluster/broker.hpp"
#include "cluster/migration.hpp"
#include "cluster/topology.hpp"
#include "core/cluster_exchange.hpp"
#include "fault/fault.hpp"
#include "runner/runner.hpp"

namespace resex::collective {
namespace {

/// A star cluster with one rank per node and the 1 ns/byte test link speed.
struct World {
  explicit World(std::uint32_t ranks, std::uint32_t pcpus = 2)
      : cluster(make_config(ranks, pcpus)) {}

  static cluster::ClusterConfig make_config(std::uint32_t ranks,
                                            std::uint32_t pcpus) {
    cluster::ClusterConfig cfg;
    cfg.nodes = ranks;
    cfg.pcpus_per_node = pcpus;
    cfg.topology = cluster::TopologyKind::kStar;
    cfg.fabric.link_bytes_per_sec = 1e9;
    return cfg;
  }

  std::vector<RankHome> homes() {
    std::vector<RankHome> out(cluster.node_count());
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
      out[i] = RankHome{&cluster.node(i), &cluster.hca(i)};
    }
    return out;
  }

  cluster::Cluster cluster;
};

// --- ring all-reduce: exact elementwise sum ----------------------------------

TEST(CollectiveRing, ExactElementwiseSumAcrossSizesAndChunkings) {
  struct Case {
    std::uint32_t ranks;
    std::uint64_t elems;
    std::uint32_t chunk_bytes;
  };
  // Uneven segments (3 and 5 ranks), chunk == element, chunk straddling
  // segment boundaries — the reduction must stay exact everywhere.
  const Case cases[] = {
      {2, 16, 8},   {3, 33, 16},    {4, 256, 64},
      {5, 1000, 256}, {8, 64, 8},
  };
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> val(0, 1000);
  for (const Case& c : cases) {
    World w(c.ranks);
    CollectiveConfig cfg;
    cfg.ranks = c.ranks;
    cfg.payload_bytes = c.elems * sizeof(double);
    cfg.chunk_bytes = c.chunk_bytes;
    cfg.algorithm = Algorithm::kRingAllReduce;
    CollectiveGroup group(w.cluster.sim(), w.homes(), cfg);

    std::vector<double> expected(c.elems, 0.0);
    for (std::uint32_t r = 0; r < c.ranks; ++r) {
      auto& data = group.rank_data(r);
      for (std::uint64_t i = 0; i < c.elems; ++i) {
        data[i] = static_cast<double>(val(rng));  // integer-valued: sums exact
        expected[i] += data[i];
      }
    }
    group.start();
    w.cluster.sim().run();

    ASSERT_TRUE(group.done());
    ASSERT_TRUE(group.result().ok)
        << "ranks=" << c.ranks << " failure rank "
        << group.result().failed_rank;
    EXPECT_GT(group.result().finished_at, group.result().started_at);
    for (std::uint32_t r = 0; r < c.ranks; ++r) {
      const auto& data = group.rank_data(r);
      for (std::uint64_t i = 0; i < c.elems; ++i) {
        ASSERT_EQ(data[i], expected[i])
            << "ranks=" << c.ranks << " chunk=" << c.chunk_bytes << " rank "
            << r << " elem " << i;
      }
      // Every rank walked the same 2(N-1) steps in order.
      ASSERT_EQ(group.step_log(r).size(), 2u * (c.ranks - 1));
      for (std::uint32_t s = 0; s < group.step_log(r).size(); ++s) {
        EXPECT_EQ(group.step_log(r)[s], s);
      }
    }
  }
}

TEST(CollectiveRing, WireBytesMatchClosedForm) {
  // N | elems so segments are equal and the closed form 2*S*(N-1)/N is exact.
  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kPayload = 256 * sizeof(double);
  World w(kRanks);
  CollectiveConfig cfg;
  cfg.ranks = kRanks;
  cfg.payload_bytes = kPayload;
  cfg.chunk_bytes = 512;
  CollectiveGroup group(w.cluster.sim(), w.homes(), cfg);
  group.start();
  w.cluster.sim().run();

  ASSERT_TRUE(group.result().ok);
  const std::uint64_t closed = 2 * kPayload * (kRanks - 1) / kRanks;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(group.rank_wire_bytes(r), closed) << "rank " << r;
  }
  EXPECT_EQ(w.cluster.sim().metrics().counter("coll_bytes").value(),
            closed * kRanks);
}

TEST(CollectiveRing, MultipleIterationsKeepReducing) {
  World w(3);
  CollectiveConfig cfg;
  cfg.ranks = 3;
  cfg.payload_bytes = 30 * sizeof(double);
  cfg.chunk_bytes = 64;
  cfg.iterations = 3;
  CollectiveGroup group(w.cluster.sim(), w.homes(), cfg);
  group.start();
  w.cluster.sim().run();

  ASSERT_TRUE(group.result().ok);
  // Iteration k multiplies the all-reduced vector by N again: after 3
  // iterations of summing (1+2+3) the value is 6 * 3 * 3 = 54.
  for (std::uint32_t r = 0; r < 3; ++r) {
    for (const double v : group.rank_data(r)) ASSERT_EQ(v, 54.0);
    EXPECT_EQ(group.step_log(r).size(), 3u * 4u);
  }
}

// --- all-gather and broadcast ------------------------------------------------

TEST(CollectiveAllGather, ConcatenatesEveryBlock) {
  constexpr std::uint32_t kRanks = 8;
  constexpr std::uint64_t kBlockElems = 24;
  World w(kRanks);
  CollectiveConfig cfg;
  cfg.ranks = kRanks;
  cfg.payload_bytes = kBlockElems * sizeof(double);
  cfg.chunk_bytes = 40;  // 5 elems: chunks straddle block boundaries
  cfg.algorithm = Algorithm::kAllGather;
  CollectiveGroup group(w.cluster.sim(), w.homes(), cfg);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    auto& data = group.rank_data(r);
    for (std::uint64_t i = 0; i < kBlockElems; ++i) {
      data[r * kBlockElems + i] = static_cast<double>(100 * (r + 1) + i);
    }
  }
  group.start();
  w.cluster.sim().run();

  ASSERT_TRUE(group.result().ok);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const auto& data = group.rank_data(r);
    ASSERT_EQ(data.size(), kRanks * kBlockElems);
    for (std::uint32_t j = 0; j < kRanks; ++j) {
      for (std::uint64_t i = 0; i < kBlockElems; ++i) {
        ASSERT_EQ(data[j * kBlockElems + i],
                  static_cast<double>(100 * (j + 1) + i))
            << "rank " << r << " block " << j << " elem " << i;
      }
    }
  }
}

TEST(CollectiveAllGather, RejectsNonPowerOfTwoRankCounts) {
  World w(3);
  CollectiveConfig cfg;
  cfg.ranks = 3;
  cfg.algorithm = Algorithm::kAllGather;
  EXPECT_THROW((CollectiveGroup{w.cluster.sim(), w.homes(), cfg}),
               std::invalid_argument);
}

TEST(CollectiveBroadcast, DeliversRootVectorToEveryRank) {
  constexpr std::uint32_t kRanks = 5;  // non-power-of-two tree
  constexpr std::uint64_t kElems = 100;
  World w(kRanks);
  CollectiveConfig cfg;
  cfg.ranks = kRanks;
  cfg.payload_bytes = kElems * sizeof(double);
  cfg.chunk_bytes = 128;
  cfg.algorithm = Algorithm::kBroadcast;
  cfg.root = 2;
  CollectiveGroup group(w.cluster.sim(), w.homes(), cfg);
  auto& root_data = group.rank_data(2);
  for (std::uint64_t i = 0; i < kElems; ++i) {
    root_data[i] = static_cast<double>(7 * i + 3);
  }
  group.start();
  w.cluster.sim().run();

  ASSERT_TRUE(group.result().ok);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const auto& data = group.rank_data(r);
    for (std::uint64_t i = 0; i < kElems; ++i) {
      ASSERT_EQ(data[i], static_cast<double>(7 * i + 3))
          << "rank " << r << " elem " << i;
    }
  }
}

// --- determinism across --jobs -----------------------------------------------

/// One full trial: cluster + ring all-reduce, returning finish time, a data
/// checksum and a step-order fingerprint — anything that could diverge.
std::vector<double> ring_trial(std::uint64_t seed) {
  World w(4);
  CollectiveConfig cfg;
  cfg.ranks = 4;
  cfg.payload_bytes = (64 + (seed % 4) * 32) * sizeof(double);
  cfg.chunk_bytes = 128;
  cfg.iterations = 2;
  CollectiveGroup group(w.cluster.sim(), w.homes(), cfg);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> val(0, 1 << 20);
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (auto& v : group.rank_data(r)) v = static_cast<double>(val(rng));
  }
  group.start();
  w.cluster.sim().run();
  double checksum = 0.0;
  for (const double v : group.rank_data(0)) checksum += v;
  double order = 0.0;
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (const std::uint32_t g : group.step_log(r)) {
      order = order * 31.0 + g + r;
    }
  }
  return {static_cast<double>(group.result().finished_at), checksum, order,
          group.result().ok ? 1.0 : 0.0};
}

TEST(CollectiveDeterminism, StepOrderingAndResultsIdenticalAcrossJobs) {
  std::vector<runner::GenericPoint> points;
  for (std::uint64_t p = 0; p < 3; ++p) {
    runner::GenericPoint pt;
    pt.label = "ring-p" + std::to_string(p);
    pt.seed = 100 + p;
    pt.run = [](const runner::TrialContext& ctx) {
      return ring_trial(ctx.seed);
    };
    points.push_back(std::move(pt));
  }
  runner::RunnerOptions serial;
  serial.jobs = 1;
  serial.seeds = 2;
  runner::RunnerOptions wide;
  wide.jobs = 4;
  wide.seeds = 2;
  const auto a = runner::run_trials(points, serial);
  const auto b = runner::run_trials(points, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].trials.size(), b[i].trials.size());
    for (std::size_t r = 0; r < a[i].trials.size(); ++r) {
      ASSERT_EQ(a[i].trials[r].values, b[i].trials[r].values)
          << "point " << i;
      EXPECT_EQ(a[i].trials[r].values.back(), 1.0) << "trial failed";
    }
  }
}

// --- faults mid-collective (the step-barrier liveness regression) ------------

TEST(CollectiveFaults, StalledRingTerminatesThroughRetryBudgetWithFlushedQps) {
  World w(4);
  // n1's uplink goes down just as traffic starts and stays down past the
  // whole RC retry budget (7 doubling RTOs from 1 ms ~ 255 ms), so rank 1's
  // sends must exhaust their budget and error the QP — and every other rank,
  // blocked on its step barrier, must drain through flush/remote-op errors
  // instead of wedging forever.
  fault::FaultInjector injector(fault::FaultPlan::parse("flap=0:400:n1/up"),
                                /*seed=*/7);
  injector.arm(w.cluster.fabric(), &w.cluster.node(0));

  CollectiveConfig cfg;
  cfg.ranks = 4;
  cfg.payload_bytes = 1 << 20;
  cfg.chunk_bytes = 64 * 1024;
  CollectiveGroup group(w.cluster.sim(), w.homes(), cfg);
  group.start();
  w.cluster.sim().run();  // the regression: this must terminate at all

  ASSERT_TRUE(group.done());
  const CollectiveResult& res = group.result();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failed_rank, CollectiveResult::kNoRank);
  EXPECT_NE(res.failure, fabric::CqeStatus::kSuccess);
  // The group died through the reliable transport, not a hang: retries were
  // burned, and the teardown flushed posted receives with error CQEs.
  auto& metrics = w.cluster.sim().metrics();
  EXPECT_GT(metrics.counter("fabric.retransmits").value(), 0u);
  EXPECT_GT(metrics.counter("fabric.wr_flushes").value(), 0u);
}

// --- the broker prices collective phases ------------------------------------

TEST(CollectiveGroup, BrokerIoPriceTracksCollectivePhases) {
  World w(4, /*pcpus=*/4);
  auto& sim = w.cluster.sim();
  core::ClusterExchange exchange;
  cluster::MigrationEngine engine(w.cluster);
  cluster::BrokerConfig bcfg;
  bcfg.period = 5 * sim::kMillisecond;
  cluster::ClusterBroker broker(w.cluster, exchange, engine, bcfg);
  broker.start();

  // ~12 MiB on each wire at 1 GB/s: the collective spans several broker
  // quote periods, then the fabric goes idle. No broker-specific code is
  // needed: the collective drives the per-port channel counters the broker
  // already prices from.
  CollectiveConfig cfg;
  cfg.ranks = 4;
  cfg.payload_bytes = 8 << 20;
  cfg.chunk_bytes = 256 * 1024;
  cfg.iterations = 2;
  CollectiveGroup group(sim, w.homes(), cfg);
  group.start();

  double busy_price = -1.0;
  sim.schedule_in(16 * sim::kMillisecond, [&] {
    ASSERT_NE(exchange.quote(0), nullptr);
    busy_price = exchange.quote(0)->io_price;
  });
  double idle_price = -1.0;
  sim.schedule_in(70 * sim::kMillisecond, [&] {
    idle_price = exchange.quote(0)->io_price;
  });
  sim.run_until(80 * sim::kMillisecond);

  ASSERT_TRUE(group.done());
  ASSERT_TRUE(group.result().ok);
  // Mid-collective the host port is near-saturated; after it ends the
  // quoted io price collapses back towards zero.
  EXPECT_GT(busy_price, 0.5);
  EXPECT_GE(idle_price, 0.0);
  EXPECT_LT(idle_price, 0.1);
}

}  // namespace
}  // namespace resex::collective
