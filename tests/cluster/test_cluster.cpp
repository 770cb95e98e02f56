// resex::cluster suite: topology shape (star / 2-tier fat-tree with real
// per-hop forwarding), the ClusterExchange book, live migration end-to-end
// (bytes on the wire, domain retirement, a client that keeps its
// connection), the price-driven broker beating static placement, and
// determinism of the whole scenario incl. the parallel runner.

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "../fabric/fabric_fixture.hpp"
#include "cluster/broker.hpp"
#include "cluster/migration.hpp"
#include "cluster/scenario.hpp"
#include "benchex/service.hpp"
#include "cluster/topology.hpp"
#include "core/cluster_exchange.hpp"
#include "core/testbed.hpp"
#include "runner/trial.hpp"
#include "sim/rng.hpp"

namespace resex::cluster {
namespace {

using fabric::Endpoint;
using fabric::testing::make_endpoint_on;
using sim::Task;

fabric::SendWr write_wr(const Endpoint& src, const Endpoint& dst,
                        std::uint32_t bytes) {
  fabric::SendWr wr;
  wr.opcode = fabric::Opcode::kRdmaWriteWithImm;
  wr.local_addr = src.buf;
  wr.lkey = src.mr.lkey;
  wr.length = bytes;
  wr.remote_addr = dst.buf;
  wr.rkey = dst.mr.rkey;
  return wr;
}

// --- topology ----------------------------------------------------------------

TEST(ClusterTopology, StarPutsEveryHostOnOneSwitch) {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.topology = TopologyKind::kStar;
  Cluster cluster(cfg);

  EXPECT_EQ(cluster.node_count(), 8u);
  EXPECT_EQ(cluster.fabric().switch_count(), 1u);
  for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
    EXPECT_EQ(cluster.switch_of_node(i), 0u);
    EXPECT_EQ(cluster.node(i).name(), "n" + std::to_string(i));
  }
}

TEST(ClusterTopology, FatTreeGroupsHostsOntoLeavesAndTrunksEverySpine) {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.topology = TopologyKind::kFatTree;
  cfg.leaf_width = 4;
  cfg.spines = 2;
  Cluster cluster(cfg);

  // 2 leaves (switches 0, 1) + 2 spines (switches 2, 3).
  ASSERT_EQ(cluster.fabric().switch_count(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.switch_of_node(i), 0u) << "node " << i;
  }
  for (std::uint32_t i = 4; i < 8; ++i) {
    EXPECT_EQ(cluster.switch_of_node(i), 1u) << "node " << i;
  }
  // Every leaf is trunked to every spine, both directions, and leaves are
  // not wired to each other.
  for (std::uint32_t leaf : {0u, 1u}) {
    for (std::uint32_t spine : {2u, 3u}) {
      EXPECT_NE(cluster.fabric().trunk(leaf, spine), nullptr);
      EXPECT_NE(cluster.fabric().trunk(spine, leaf), nullptr);
    }
  }
  EXPECT_EQ(cluster.fabric().trunk(0, 1), nullptr);
}

TEST(ClusterTopology, CrossLeafPacketsTakeThreeHopsSameLeafOne) {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.pcpus_per_node = 4;
  cfg.topology = TopologyKind::kFatTree;
  cfg.leaf_width = 4;
  cfg.spines = 2;
  cfg.fabric = fabric::testing::test_config();
  Cluster cluster(cfg);
  auto& sim = cluster.sim();

  Endpoint src = make_endpoint_on(cluster.node(0), cluster.hca(0), "src");
  Endpoint near = make_endpoint_on(cluster.node(1), cluster.hca(1), "near");
  Endpoint far = make_endpoint_on(cluster.node(4), cluster.hca(4), "far");

  auto& hops = sim.metrics().counter("fabric.switch_hops");
  auto one_packet = [&sim](Endpoint& s, Endpoint& d) {
    fabric::Fabric::connect(*s.qp, *d.qp);
    d.qp->post_recv(fabric::RecvWr{.wr_id = 1});
    sim.spawn([](Endpoint& ep, fabric::SendWr wr) -> Task {
      co_await ep.verbs->post_send(*ep.qp, wr);
      (void)co_await ep.verbs->next_cqe(*ep.send_cq);
    }(s, write_wr(s, d, 1024)));  // one packet at the 1 KiB MTU
  };

  one_packet(src, near);  // same leaf: single traversal
  sim.run_until(sim::kMillisecond);
  EXPECT_EQ(hops.value(), 1u);

  one_packet(src, far);  // cross leaf: leaf -> spine -> leaf
  sim.run_until(2 * sim::kMillisecond);
  EXPECT_EQ(hops.value(), 1u + 3u);
}

// --- the exchange book -------------------------------------------------------

TEST(ClusterExchangeBook, UpsertsSortedAndPicksCheapestDeterministically) {
  core::ClusterExchange ex;
  ex.post({.node_id = 2, .io_price = 0.9, .cpu_price = 0.5, .free_pcpus = 3});
  ex.post({.node_id = 0, .io_price = 0.2, .cpu_price = 0.1, .free_pcpus = 1});
  ex.post({.node_id = 1, .io_price = 0.2, .cpu_price = 0.1, .free_pcpus = 2});

  ASSERT_EQ(ex.book().size(), 3u);
  EXPECT_EQ(ex.book()[0].node_id, 0u);
  EXPECT_EQ(ex.book()[2].node_id, 2u);

  // Upsert refreshes in place, no duplicate row.
  ex.post({.node_id = 2, .io_price = 0.1, .cpu_price = 0.0, .free_pcpus = 3});
  ASSERT_EQ(ex.book().size(), 3u);
  ASSERT_NE(ex.quote(2), nullptr);
  EXPECT_DOUBLE_EQ(ex.quote(2)->io_price, 0.1);
  EXPECT_EQ(ex.quote(7), nullptr);

  // Node 2 is now cheapest; excluded, the 0/1 tie breaks to the lower id.
  const auto* best = ex.cheapest(/*min_free_pcpus=*/1, /*exclude=*/9);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->node_id, 2u);
  best = ex.cheapest(1, /*exclude=*/2);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->node_id, 0u);
  // Capacity filter: only node 2 has >= 3 free PCPUs.
  best = ex.cheapest(3, /*exclude=*/9);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->node_id, 2u);
  EXPECT_EQ(ex.cheapest(3, /*exclude=*/2), nullptr);
}

TEST(ClusterExchangeBook, BlendedPriceIsIoDominant) {
  core::NodePriceQuote q{.node_id = 0, .io_price = 0.5, .cpu_price = 0.4};
  EXPECT_DOUBLE_EQ(core::ClusterExchange::blended(q), 0.5 + 0.25 * 0.4);
  EXPECT_DOUBLE_EQ(core::ClusterExchange::blended(q, 0.0, 1.0), 0.4);
}

// --- live migration ----------------------------------------------------------

TEST(Migration, MovesServerAcrossTheFabricWhileClientKeepsReceiving) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.pcpus_per_node = 4;
  Cluster cluster(cfg);
  auto& sim = cluster.sim();

  benchex::Service svc(cluster.hca(0), cluster.hca(1),
              core::reporting_config(64 * 1024, 2000.0, 7), "svc0");
  MigrationEngine engine(cluster);
  svc.start();
  sim.run_until(50 * sim::kMillisecond);

  const auto old_domain = svc.server_domain().id();
  const auto guest_bytes = svc.server_domain().memory().size_bytes();
  const auto uplink_before = cluster.hca(0).uplink().bytes_sent();
  ASSERT_EQ(svc.server_node_id(), 0u);

  engine.migrate(svc, 3);
  sim::SimTime t = sim.now();
  do {  // spawn is lazy: step the sim at least once before polling
    t += sim::kMillisecond;
    sim.run_until(t);
  } while (engine.in_progress() && t < 2 * sim::kSecond);
  ASSERT_FALSE(engine.in_progress());

  const auto& stats = engine.stats();
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(svc.server_node_id(), 3u);
  EXPECT_EQ(svc.migrations(), 1u);
  EXPECT_TRUE(cluster.node(0).is_retired(old_domain));
  EXPECT_GT(stats.last_pause_ns, 0);

  // Round 0 ships the whole guest address space, so at least that many
  // payload bytes crossed the fabric — all through the source host port.
  EXPECT_GE(stats.bytes, guest_bytes);
  EXPECT_GE(cluster.hca(0).uplink().bytes_sent() - uplink_before, stats.bytes);
  EXPECT_EQ(sim.metrics().counter("cluster.migrations").value(), 1u);
  EXPECT_GE(sim.metrics().counter("cluster.migration_bytes").value(),
            guest_bytes);

  // The request stream survives the move.
  const auto received = svc.client_metrics().received;
  sim.run_until(t + 100 * sim::kMillisecond);
  EXPECT_GT(svc.client_metrics().received, received);
  EXPECT_EQ(svc.client_metrics().errors, 0u);
}

// --- scenario ----------------------------------------------------------------

double metric_value(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& s : snap.samples) {
    if (s.name == name) return s.value;
  }
  return -1.0;
}

TEST(ClusterScenario, MigrationBeatsStaticPlacement) {
  ClusterScenarioConfig cfg;
  cfg.nodes = 8;
  cfg.duration = 500 * sim::kMillisecond;
  cfg.seed = 11;

  cfg.migration_enabled = false;
  const auto fixed = run_cluster_scenario(cfg);

  cfg.migration_enabled = true;
  cfg.collect_metrics = true;
  const auto resex = run_cluster_scenario(cfg);

  // Same calibration, so the SLA limits agree between the two runs.
  EXPECT_DOUBLE_EQ(fixed.sla_limit_us, resex.sla_limit_us);
  EXPECT_EQ(fixed.migration.migrations, 0u);

  EXPECT_GE(resex.migration.migrations, 1u);
  EXPECT_LT(resex.violation_pct, fixed.violation_pct);
  // Whoever moved landed on a spare node (P .. 2P-1), not another
  // contended host.
  const std::uint32_t pairs = cfg.nodes / 4;
  for (const auto& s : resex.services) {
    if (s.migrations > 0) {
      EXPECT_GE(s.final_node, pairs) << s.name;
      EXPECT_LT(s.final_node, 2 * pairs) << s.name;
    }
  }
  // The migration bytes are visible in the metrics document.
  EXPECT_GE(metric_value(resex.metrics, "cluster.migration_bytes"),
            static_cast<double>(resex.migration.bytes));
  EXPECT_GT(metric_value(resex.metrics, "cluster.migration_bytes"), 0.0);
}

void expect_same_summary(const ClusterServiceSummary& a,
                         const ClusterServiceSummary& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.client_mean_us, b.client_mean_us);
  EXPECT_EQ(a.client_p99_us, b.client_p99_us);
  EXPECT_EQ(a.server_total_us, b.server_total_us);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.final_node, b.final_node);
}

void expect_same_result(const ClusterScenarioResult& a,
                        const ClusterScenarioResult& b) {
  EXPECT_EQ(a.sla_limit_us, b.sla_limit_us);
  EXPECT_EQ(a.baseline_total_us, b.baseline_total_us);
  EXPECT_EQ(a.violation_pct, b.violation_pct);
  EXPECT_EQ(a.migration.migrations, b.migration.migrations);
  EXPECT_EQ(a.migration.bytes, b.migration.bytes);
  EXPECT_EQ(a.migration.precopy_rounds, b.migration.precopy_rounds);
  EXPECT_EQ(a.migration.pause_ns_total, b.migration.pause_ns_total);
  ASSERT_EQ(a.services.size(), b.services.size());
  for (std::size_t i = 0; i < a.services.size(); ++i) {
    expect_same_summary(a.services[i], b.services[i]);
  }
  ASSERT_EQ(a.interferers.size(), b.interferers.size());
  for (std::size_t i = 0; i < a.interferers.size(); ++i) {
    expect_same_summary(a.interferers[i], b.interferers[i]);
  }
}

TEST(ClusterScenario, RepeatedRunsAreBitIdentical) {
  ClusterScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.duration = 300 * sim::kMillisecond;
  cfg.seed = 5;
  const auto first = run_cluster_scenario(cfg);
  const auto second = run_cluster_scenario(cfg);
  expect_same_result(first, second);
  EXPECT_GT(first.services.at(0).samples, 0u);
}

TEST(ClusterRunner, ResultsAreIndependentOfJobCount) {
  // Each trial keeps its full result at [point * seeds + replicate].
  static constexpr std::size_t kSeeds = 2;
  auto run_with = [](std::size_t jobs) {
    std::vector<ClusterScenarioResult> results(2 * kSeeds);
    std::vector<runner::GenericPoint> points;
    for (const bool migrate : {false, true}) {
      ClusterScenarioConfig config;
      config.nodes = 4;
      config.warmup = 50 * sim::kMillisecond;
      config.duration = 200 * sim::kMillisecond;
      config.migration_enabled = migrate;
      config.sla_limit_us = 100.0;
      config.baseline_total_us = 50.0;
      runner::GenericPoint p;
      p.label = migrate ? "resex" : "static";
      p.params = {{"migrate", migrate ? "1" : "0"}};
      p.seed = config.seed;
      p.run = [&results, config](const runner::TrialContext& ctx) {
        auto cfg = config;
        ctx.apply(cfg);
        results[ctx.point * kSeeds + ctx.replicate] = run_cluster_scenario(cfg);
        return std::vector<double>{};
      };
      points.push_back(std::move(p));
    }
    runner::RunnerOptions opts;
    opts.seeds = kSeeds;
    opts.jobs = jobs;
    const auto outcomes = runner::run_trials(std::move(points), opts);
    EXPECT_EQ(outcomes.size(), 2u);
    for (const auto& o : outcomes) {
      EXPECT_EQ(o.trials.size(), kSeeds);
      for (std::size_t r = 0; r < o.trials.size(); ++r) {
        EXPECT_EQ(o.trials[r].seed, sim::derive(1, r));
      }
    }
    return results;
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_same_result(serial[i], parallel[i]);
  }
}

}  // namespace
}  // namespace resex::cluster
