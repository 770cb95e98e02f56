// Multipath routing (resex::routing) on the 2-tier fat-tree.
//
// Table 1 — trunk spreading: cross-leaf incast (8 senders on leaf 0, one
// receiver on leaf 1) and cross-leaf all-to-all (4 hosts per leaf, every
// cross-leaf pair active) over 4 parallel 1x spine trunks, comparing
//
//   static     every (src,dst) pair rides the one destination-indexed spine:
//              the whole leaf's cross traffic serializes on a single trunk
//              while three sit idle.
//   ecmp       a flow-consistent hash over (QP, SL) spreads flows across all
//              equal-cost spines; per-QP order is preserved.
//   adaptive   flows are placed on the least-loaded candidate trunk at flow
//              start (and escape paused trunks): the spread follows load,
//              not hash luck.
//
// Reported per row: pooled per-write p50/p99, the *maximum* per-trunk
// utilization over the measure window (the acceptance figure: multipath must
// sit strictly below static's ~100% hot trunk at 8:1), the number of trunks
// that carried traffic, and the adaptive rehash count.
//
// Table 2 — deadlock freedom: the striped-ring PFC all-reduce from
// bench_fig_allreduce (every ring edge crosses the oversubscribed trunk,
// pause trees close a cyclic buffer dependency, the fabric deadlocks and the
// RC retry budget aborts the group). With --vl-shift semantics (routing
// lane shifts + qos lanes) the wrap-direction transfers ride one virtual
// lane up, the per-lane pause graph is acyclic, and the same ring completes
// lossless.
//
// Per-trial results are byte-identical for any --jobs value.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/topology.hpp"
#include "collective/collective.hpp"
#include "fabric/verbs.hpp"
#include "hv/node.hpp"
#include "routing/config.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

constexpr sim::SimDuration kMeasure = 400_ms;
constexpr std::uint32_t kSpines = 4;

/// One directed cross-leaf flow: sender endpoint + the receive-side QP and
/// buffer slot it writes into.
struct Flow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

std::vector<double> run_spread(bool alltoall, routing::RouteMode mode,
                               std::uint64_t ecmp_seed,
                               const runner::TrialContext& ctx) {
  // 8:1: hosts 0..7 on leaf 0 incast host 8 on leaf 1. all-to-all: 4 hosts
  // per leaf, every cross-leaf ordered pair active (16 flows each way).
  cluster::ClusterConfig cfg;
  cfg.nodes = alltoall ? 8 : 9;
  // Each endpoint auto-pins its domain to a free PCPU; all-to-all hosts
  // 4 send + 1 recv endpoints per node.
  cfg.pcpus_per_node = alltoall ? 6 : 2;
  cfg.topology = cluster::TopologyKind::kFatTree;
  cfg.leaf_width = alltoall ? 4 : 8;
  cfg.spines = kSpines;
  cfg.trunk_bandwidth_scale = 1.0;
  cfg.fabric.routing.mode = mode;
  cfg.fabric.routing.ecmp_seed = ecmp_seed;
  cluster::Cluster cluster(cfg);
  auto& sim = cluster.sim();
  auto observer = ctx.observe(sim);

  std::vector<Flow> flows;
  if (alltoall) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      for (std::uint32_t j = 4; j < 8; ++j) {
        flows.push_back({i, j});
        flows.push_back({j, i});
      }
    }
  } else {
    for (std::uint32_t i = 0; i < 8; ++i) flows.push_back({i, 8});
  }

  // Receive regions: one 64KB slot per incoming flow, per node.
  std::vector<std::uint32_t> fan_in(cfg.nodes, 0);
  for (const Flow& f : flows) ++fan_in[f.dst];
  std::vector<std::unique_ptr<Endpoint>> recv_eps(cfg.nodes);
  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    if (fan_in[n] == 0) continue;
    recv_eps[n] = std::make_unique<Endpoint>(make_endpoint(
        cluster.node(n), cluster.hca(n), "recv_vm" + std::to_string(n),
        std::uint64_t{fan_in[n]} * kWriteBytes));
  }

  std::vector<std::unique_ptr<Endpoint>> send_eps;
  std::vector<mem::GuestAddr> remote_addr(flows.size());
  std::vector<std::uint32_t> remote_rkey(flows.size());
  std::vector<std::uint32_t> next_slot(cfg.nodes, 0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Flow& fl = flows[f];
    send_eps.push_back(std::make_unique<Endpoint>(
        make_endpoint(cluster.node(fl.src), cluster.hca(fl.src),
                      "send_vm" + std::to_string(f), kWriteBytes)));
    Endpoint& recv = *recv_eps[fl.dst];
    fabric::QueuePair& rqp = cluster.hca(fl.dst).create_qp(
        *recv.domain, recv.pd, *recv.send_cq, *recv.recv_cq);
    fabric::Fabric::connect(*send_eps.back()->qp, rqp);
    remote_addr[f] =
        recv.buf + std::uint64_t{next_slot[fl.dst]++} * kWriteBytes;
    remote_rkey[f] = recv.mr.rkey;
  }

  const sim::SimTime end = kWarmup + kMeasure;
  std::vector<std::unique_ptr<sim::Samples>> latencies;
  sim::Rng jitter(sim::derive(ctx.seed, 0x707e));
  for (std::size_t f = 0; f < flows.size(); ++f) {
    latencies.push_back(std::make_unique<sim::Samples>());
    const auto start = static_cast<sim::SimDuration>(
        jitter.uniform(0.0, static_cast<double>(10_us)));
    sim.spawn(sender_loop(sim, *send_eps[f], remote_addr[f], remote_rkey[f],
                          start, end, *latencies[f]));
  }

  // Per-trunk busy-time snapshot at the end of warmup: utilization is
  // measured over the steady window only.
  std::vector<sim::SimDuration> busy_at_warmup;
  std::vector<std::uint64_t> bytes_at_warmup;
  sim.spawn([](sim::Simulation& s, fabric::Fabric& fabric,
               std::vector<sim::SimDuration>& busy,
               std::vector<std::uint64_t>& bytes) -> sim::Task {
    co_await s.delay(kWarmup);
    fabric.for_each_trunk(
        [&](std::uint32_t, std::uint32_t, fabric::Channel& ch) {
          busy.push_back(ch.busy_time());
          bytes.push_back(ch.bytes_sent());
        });
  }(sim, cluster.fabric(), busy_at_warmup, bytes_at_warmup));

  observer.start();
  sim.run_until(end);
  observer.finish();

  sim::Samples pooled;
  for (const auto& s : latencies) {
    for (const double v : s->values()) pooled.add(v);
  }
  double max_util = 0.0;
  std::uint32_t trunks_used = 0;
  std::size_t idx = 0;
  cluster.fabric().for_each_trunk(
      [&](std::uint32_t, std::uint32_t, fabric::Channel& ch) {
        const double util =
            static_cast<double>(ch.busy_time() - busy_at_warmup[idx]) /
            static_cast<double>(kMeasure);
        max_util = std::max(max_util, util);
        if (ch.bytes_sent() > bytes_at_warmup[idx]) ++trunks_used;
        ++idx;
      });
  return {static_cast<double>(pooled.count()),
          pooled.median(),
          pooled.percentile(99.0),
          max_util,
          static_cast<double>(trunks_used),
          static_cast<double>(
              sim.metrics().counter("fabric.route_rehash").value())};
}

/// The striped-ring PFC all-reduce (bench_fig_allreduce's deadlock case),
/// with and without routing lane shifts.
std::vector<double> run_ring(bool vl_shift, const runner::TrialContext& ctx) {
  constexpr std::uint32_t kRanks = 8;
  cluster::ClusterConfig cfg;
  cfg.nodes = kRanks;
  cfg.pcpus_per_node = 2;
  cfg.topology = cluster::TopologyKind::kFatTree;
  cfg.leaf_width = (kRanks + 1) / 2;
  cfg.spines = 1;
  cfg.trunk_bandwidth_scale = 1.0;
  apply_mode(cfg.fabric, {.name = "pfc",
                          .buf_pkts = 64,
                          .pfc = true,
                          .vl_shift = vl_shift});
  cluster::Cluster cluster(cfg);
  auto& sim = cluster.sim();
  auto observer = ctx.observe(sim);

  collective::CollectiveConfig coll;
  coll.ranks = kRanks;
  coll.payload_bytes = 4u << 20;
  coll.chunk_bytes = 256 * 1024;
  coll.algorithm = collective::Algorithm::kRingAllReduce;

  // Stripe ranks across the two leaves so every ring edge crosses the trunk.
  std::vector<collective::RankHome> homes(kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const std::uint32_t node = (r % 2) * cfg.leaf_width + r / 2;
    homes[r] = collective::RankHome{&cluster.node(node), &cluster.hca(node)};
  }
  collective::CollectiveGroup group(sim, std::move(homes), coll);
  group.start();
  observer.start();
  sim.run_until(3'000_ms);
  observer.finish();

  const auto& res = group.result();
  const bool ok = group.done() && res.ok;
  const double t_ms =
      ok ? static_cast<double>(res.finished_at - res.started_at) / 1e6 : 0.0;
  auto& m = sim.metrics();
  return {ok ? 1.0 : 0.0,
          t_ms,
          static_cast<double>(m.counter("fabric.buf_drops").value()),
          static_cast<double>(m.counter("fabric.pfc_pauses").value()),
          static_cast<double>(m.counter("fabric.retransmits").value())};
}

}  // namespace

int main(int argc, char** argv) {

  const auto opts = parse_cli(argc, argv);
  const std::uint64_t ecmp_seed = opts.routing.ecmp_seed;

  struct ModeRow {
    std::string name;
    resex::routing::RouteMode mode;
  };
  const std::vector<ModeRow> modes = {
      {"static", resex::routing::RouteMode::kStatic},
      {"ecmp", resex::routing::RouteMode::kEcmp},
      {"adaptive", resex::routing::RouteMode::kAdaptive},
  };

  std::vector<runner::GenericPoint> points;
  for (const bool alltoall : {false, true}) {
    for (const ModeRow& m : modes) {
      runner::GenericPoint p;
      p.label = std::string(alltoall ? "alltoall" : "8:1") + " " + m.name;
      p.params = {{"pattern", alltoall ? "alltoall" : "incast8"},
                  {"mode", m.name},
                  {"spines", std::to_string(kSpines)}};
      p.run = [alltoall, m, ecmp_seed](const runner::TrialContext& ctx) {
        return run_spread(alltoall, m.mode, ecmp_seed, ctx);
      };
      points.push_back(std::move(p));
    }
  }

  int rc = run_bench(
      opts, "Multipath fat-tree routing: static vs ECMP vs adaptive",
      "Cross-leaf incast (8:1) and all-to-all over " +
          std::to_string(kSpines) +
          " parallel 1x spine trunks.\nmax_trunk_util is the hottest trunk's "
          "busy fraction over the measure window;\nstatic serializes a "
          "leaf's cross traffic on one spine, multipath spreads it.",
      std::move(points),
      {"reqs", "p50_us", "p99_us", "max_trunk_util", "trunks_used",
       "rehash"}).rc;

  std::cout << "\nStatic pins every (src-leaf, dst-leaf) pair to one "
               "destination-indexed spine:\nthe hot trunk saturates while "
               "its three siblings idle. ECMP hashes flows\nacross the "
               "candidate set (per-QP order intact); adaptive places each "
               "flow on\nthe least-loaded trunk at flow start, so the spread "
               "follows load rather than\nhash luck (rehash counts its "
               "mid-run moves).\n\n";

  // --- table 2: PFC deadlock vs lane shifts ---------------------------------
  std::vector<runner::GenericPoint> ring_points;
  for (const bool shift : {false, true}) {
    runner::GenericPoint p;
    p.label = shift ? "striped-ring pfc+vlshift" : "striped-ring pfc";
    p.params = {{"pattern", "ring"}, {"vl_shift", shift ? "1" : "0"}};
    p.run = [shift](const runner::TrialContext& ctx) {
      return run_ring(shift, ctx);
    };
    ring_points.push_back(std::move(p));
  }
  const int rc2 = run_bench(
      opts, "Striped-ring PFC all-reduce: lane shifts break the deadlock",
      "8 ranks striped across two leaves over a single 1x trunk, PFC on,\n"
      "4MiB ring all-reduce (every step overflows the trunk buffers).",
      std::move(ring_points), {"ok", "time_ms", "drops", "pauses", "retx"},
      ".ring").rc;
  if (rc == 0) rc = rc2;

  std::cout << "\nPlain PFC turns the striped ring's cyclic route into a "
               "cyclic pause\ndependency: the fabric deadlocks and the RC "
               "retry budget aborts the group\n(ok=0). With lane shifts the "
               "wrap-direction transfers ride one virtual lane\nup, the "
               "per-lane dependency graph is acyclic, and the same ring "
               "completes\nlossless (ok=1, drops=0).\n";
  return rc;
}
