// QoS: service levels and virtual lanes — does class separation actually
// isolate latency traffic from bulk traffic on a shared fabric?
//
// Part 1 — the fig_pfc fat-tree victim experiment, rerun with two classes:
// three aggressors on leaf 0 incast into a receiver on leaf 1 under PFC
// while a victim flow (leaf 0 -> a different leaf-1 host) shares only the
// (fat, uncongested) trunks. fig_pfc showed the 1-class result: the pause
// tree grows backwards from the hot port and gates the victim's uplink too.
// Here the aggressors ride the bulk service level (SL1 -> VL1) and the
// victim the latency level (SL0 -> VL0, high-priority arbitration table):
//   uncontended    victim alone — its goodput/p99 ceiling.
//   pfc 1-class    aggressors + victim, --qos off: the fig_pfc HoL number.
//   pfc 2-class    the same offered load with qos on: XOFF asserts only the
//                  bulk lane (class-bitmap pause frames), so the victim's
//                  lane keeps flowing through the very same ports.
// Acceptance: 2-class victim goodput and p99 within 10% of uncontended
// while the bulk class keeps >= 90% of its 1-class goodput.
//
// Part 2 — allreduce-under-incast with two classes: a 4-rank ring
// all-reduce striped across a 1x spine trunk (every ring edge crosses it)
// runs continuously as bulk traffic — resex::collective marks its QPs
// SL1 by default — while a latency victim on the same trunk measures
// per-write p99. The fabric is lossless (infinite buffers, no PFC: a
// cyclically-routed ring under PFC deadlocks, see fig_allreduce — Part 1
// already covers per-class pause frames), so the contended resource is
// pure trunk queueing. With one class the victim queues behind the
// collective's chunks; with two classes the VL arbiter's high-priority
// table lets the victim's packets overtake at every hop.
//
// Runner-backed via generic points; per-trial results are byte-identical
// for any --jobs value.

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "collective/collective.hpp"
#include "qos/config.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

constexpr sim::SimDuration kMeasure = 300_ms;
constexpr sim::SimDuration kDrain = 50_ms;
constexpr std::uint64_t kJitterStream = 0x9fc;

/// A fat-tree of 8 hosts, 4 per leaf, one spine.
cluster::ClusterConfig fat_tree(double trunk_scale) {
  return {.nodes = 8,
          .topology = cluster::TopologyKind::kFatTree,
          .leaf_width = 4,
          .spines = 1,
          .trunk_bandwidth_scale = trunk_scale};
}

/// `mode`, two-class when `qos_on`: SL0 (latency) -> VL0 on the
/// high-priority arbitration table, SL1 (bulk) -> VL1 — the QosConfig
/// defaults.
Mode with_qos(Mode mode, bool qos_on) {
  mode.qos.enabled = qos_on;
  return mode;
}

/// Part 1: the fig_pfc fat-tree victim rerun under `pfc`. Aggressors n1..n3
/// (leaf 0) incast into n4 (leaf 1) on the bulk SL; the victim writes
/// n0 -> n5 on the latency SL. Returns {reqs, p50_us, p99_us, drops, pauses,
/// bulk_MBps, victim_MBps} where reqs/p50/p99 are the *victim's* per-write
/// latencies and bulk_MBps is the incast receiver's goodput.
std::vector<double> run_victim(bool aggressors_on, bool qos_on,
                               const Mode& pfc,
                               const runner::TrialContext& ctx) {
  // Fat trunks, as in fig_pfc: only PFC backpressure ever fills them. The
  // bulk SL is inert while qos is off: SL1 still maps to the single lane.
  FlowWorld world(ctx, fat_tree(8.0), with_qos(pfc, qos_on));
  std::vector<Flow> flows;
  for (std::uint32_t i = 1; aggressors_on && i <= 3; ++i) {
    flows.push_back({i, 4, qos::kBulkSl});
  }
  flows.push_back({0, 5, qos::kLatencySl});
  world.run(flows, kJitterStream, kMeasure, kDrain);

  const sim::Samples victim = world.latency_us(flows.size() - 1);
  return {static_cast<double>(victim.count()),
          victim.median(),
          victim.percentile(99.0),
          world.counter("fabric.buf_drops"),
          world.counter("fabric.pfc_pauses"),
          world.mbps(world.down_bytes(4)),
          world.mbps(world.down_bytes(5))};
}

/// Part 2: continuous 4-rank ring all-reduce striped across a 1x spine
/// trunk (ranks on n0,n4,n1,n5 — every ring edge crosses the trunk) as the
/// bulk class, with a latency victim n2 -> n6 sharing that trunk. The
/// fabric is lossless without PFC (a PFC'd ring deadlocks on its cyclic
/// route), so trunk queueing alone separates the classes. Same column
/// vector as run_victim; bulk_MBps sums the rank hosts' downlink goodput
/// (= the collective's delivered bandwidth).
std::vector<double> run_allreduce_victim(bool coll_on, bool qos_on,
                                         const runner::TrialContext& ctx) {
  cluster::ClusterConfig ccfg = fat_tree(1.0);  // the trunk IS it
  ccfg.pcpus_per_node = 2;
  FlowWorld world(ctx, ccfg, with_qos({}, qos_on));

  // Ranks striped across the leaves; the collective marks its own QPs
  // bulk (SL1) — nothing to configure here, that is the default contract.
  const std::vector<std::uint32_t> rank_nodes = {0, 4, 1, 5};
  std::unique_ptr<collective::CollectiveGroup> group;
  if (coll_on) {
    collective::CollectiveConfig coll;
    coll.ranks = static_cast<std::uint32_t>(rank_nodes.size());
    coll.payload_bytes = 1u << 20;
    coll.chunk_bytes = 32 * 1024;
    coll.algorithm = collective::Algorithm::kRingAllReduce;
    // Effectively unbounded (hours of sim time at this payload — but small
    // enough that iterations * steps stays inside the 16-bit step id
    // space): the group must still be mid-flight when the window closes.
    coll.iterations = 5000;
    std::vector<collective::RankHome> homes;
    for (const std::uint32_t n : rank_nodes) {
      homes.push_back({&world.cluster().node(n), &world.cluster().hca(n)});
    }
    group = std::make_unique<collective::CollectiveGroup>(
        world.sim(), std::move(homes), coll);
    group->start();
  }
  world.run({{2, 6, qos::kLatencySl}}, kJitterStream, kMeasure, kDrain);

  std::uint64_t coll_bytes = 0;
  for (const std::uint32_t n : rank_nodes) coll_bytes += world.down_bytes(n);
  const sim::Samples victim = world.latency_us();
  return {static_cast<double>(victim.count()),
          victim.median(),
          victim.percentile(99.0),
          world.counter("fabric.buf_drops"),
          world.counter("fabric.pfc_pauses"),
          world.mbps(coll_bytes),
          world.mbps(world.down_bytes(6))};
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::string_view kReads[] = {"--buf-pkts"};
  const auto opts = parse_cli(argc, argv, kReads);
  const Mode pfc = Buffers(opts).pfc();
  const std::uint32_t buf = pfc.congestion.buffer_pkts;

  using Ctx = const runner::TrialContext&;
  struct Row {
    std::string label;
    std::string part;
    std::function<std::vector<double>(Ctx)> run;
  };
  const std::vector<Row> rows = {
      {"fat-tree uncontended", "victim",
       [pfc](Ctx c) { return run_victim(false, false, pfc, c); }},
      {"fat-tree pfc 1-class", "victim",
       [pfc](Ctx c) { return run_victim(true, false, pfc, c); }},
      {"fat-tree pfc 2-class qos", "victim",
       [pfc](Ctx c) { return run_victim(true, true, pfc, c); }},
      {"allreduce uncontended", "allreduce",
       [](Ctx c) { return run_allreduce_victim(false, false, c); }},
      {"allreduce 1-class", "allreduce",
       [](Ctx c) { return run_allreduce_victim(true, false, c); }},
      {"allreduce 2-class qos", "allreduce",
       [](Ctx c) { return run_allreduce_victim(true, true, c); }},
  };
  std::vector<runner::GenericPoint> points;
  for (const Row& row : rows) {
    runner::GenericPoint p;
    p.label = row.label;
    p.params = {{"part", row.part},
                {"qos", row.label.find("2-class") != std::string::npos
                            ? "on" : "off"}};
    p.run = row.run;
    points.push_back(std::move(p));
  }

  const auto [outcomes, rc] = run_bench(
      opts, "QoS: two traffic classes on shared virtual lanes",
      "Part 1: the fig_pfc fat-tree victim rerun (buf=" + std::to_string(buf) +
          " pkts, PFC) with aggressors on the bulk SL and the\nvictim on the "
          "latency SL: per-class pause frames stop the bulk lane without "
          "gating\nthe victim's. Part 2: a striped ring all-reduce (bulk) "
          "saturates a lossless 1x\nspine trunk while a latency victim "
          "shares it; the VL arbiter's high-priority\ntable lets the victim "
          "overtake at every hop. p50/p99 columns are the victim's.",
      std::move(points),
      {"reqs", "p50_us", "p99_us", "drops", "pauses", "bulk_MBps",
       "victim_MBps"});

  constexpr std::size_t kP99Col = 2;
  constexpr std::size_t kBulkCol = 5;
  constexpr std::size_t kVictimCol = 6;
  const auto pct = [](double a, double b) {
    return b > 0.0 ? 100.0 * a / b : 0.0;
  };
  const double v_base = mean_of(outcomes, "fat-tree uncontended", kVictimCol);
  const double v_1c = mean_of(outcomes, "fat-tree pfc 1-class", kVictimCol);
  const double v_2c = mean_of(outcomes, "fat-tree pfc 2-class qos", kVictimCol);
  const double p99_base = mean_of(outcomes, "fat-tree uncontended", kP99Col);
  const double p99_2c = mean_of(outcomes, "fat-tree pfc 2-class qos", kP99Col);
  const double bulk_1c = mean_of(outcomes, "fat-tree pfc 1-class", kBulkCol);
  const double bulk_2c =
      mean_of(outcomes, "fat-tree pfc 2-class qos", kBulkCol);
  const double ar_p99_1c = mean_of(outcomes, "allreduce 1-class", kP99Col);
  const double ar_p99_2c = mean_of(outcomes, "allreduce 2-class qos", kP99Col);
  std::cout << "\nIsolation (fat-tree victim): goodput "
            << static_cast<std::uint64_t>(v_1c) << " -> "
            << static_cast<std::uint64_t>(v_2c)
            << " MB/s with qos on, i.e. " << static_cast<std::int64_t>(
                   pct(v_2c, v_base))
            << "% of the uncontended " << static_cast<std::uint64_t>(v_base)
            << " MB/s (accept >= 90%);\nvictim p99 " << p99_2c << " us vs "
            << p99_base << " us uncontended ("
            << static_cast<std::int64_t>(pct(p99_2c, p99_base))
            << "%, accept <= 110%). The bulk class keeps "
            << static_cast<std::int64_t>(pct(bulk_2c, bulk_1c))
            << "% of its 1-class goodput (accept >= 90%).\n"
            << "Allreduce part: victim p99 " << ar_p99_1c
            << " us behind the 1-class collective vs " << ar_p99_2c
            << " us with two classes.\n";
  return rc;
}
