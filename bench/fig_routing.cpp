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
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "collective/collective.hpp"
#include "routing/config.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

constexpr sim::SimDuration kMeasure = 400_ms;
constexpr std::uint32_t kSpines = 4;

std::vector<double> run_spread(bool alltoall,
                               const routing::RoutingConfig& route,
                               const runner::TrialContext& ctx) {
  // 8:1: hosts 0..7 on leaf 0 incast host 8 on leaf 1. all-to-all: 4 hosts
  // per leaf, every cross-leaf ordered pair active (16 flows each way).
  // Each endpoint auto-pins its domain to a free PCPU; all-to-all hosts
  // 4 send + 1 recv endpoints per node.
  FlowWorld world(ctx,
                  {.nodes = alltoall ? 8u : 9u,
                   .pcpus_per_node = alltoall ? 6u : 2u,
                   .topology = cluster::TopologyKind::kFatTree,
                   .leaf_width = alltoall ? 4u : 8u,
                   .spines = kSpines,
                   .trunk_bandwidth_scale = 1.0},
                  {.name = to_string(route.mode), .routing = route});

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
  // Utilization is measured over the steady window only.
  world.run(flows, 0x707e, kMeasure);

  const sim::Samples pooled = world.latency_us();
  double max_util = 0.0;
  std::uint32_t trunks_used = 0;
  std::size_t idx = 0;
  const auto& at = world.at_warmup();
  world.cluster().fabric().for_each_trunk(
      [&](std::uint32_t, std::uint32_t, fabric::Channel& ch) {
        const double util =
            static_cast<double>(ch.busy_time() - at.trunk_busy[idx]) /
            static_cast<double>(kMeasure);
        max_util = std::max(max_util, util);
        if (ch.bytes_sent() > at.trunk_bytes[idx]) ++trunks_used;
        ++idx;
      });
  return {static_cast<double>(pooled.count()),
          pooled.median(),
          pooled.percentile(99.0),
          max_util,
          static_cast<double>(trunks_used),
          world.counter("fabric.route_rehash")};
}

/// The striped-ring PFC all-reduce (bench_fig_allreduce's deadlock case)
/// under `mode`: PFC with or without routing lane shifts.
std::vector<double> run_ring(const Mode& mode,
                             const runner::TrialContext& ctx) {
  constexpr std::uint32_t kRanks = 8;
  constexpr std::uint32_t kLeafWidth = (kRanks + 1) / 2;
  FlowWorld world(ctx,
                  {.nodes = kRanks,
                   .pcpus_per_node = 2,
                   .topology = cluster::TopologyKind::kFatTree,
                   .leaf_width = kLeafWidth,
                   .spines = 1,
                   .trunk_bandwidth_scale = 1.0},
                  mode);

  collective::CollectiveConfig coll;
  coll.ranks = kRanks;
  coll.payload_bytes = 4u << 20;
  coll.chunk_bytes = 256 * 1024;
  coll.algorithm = collective::Algorithm::kRingAllReduce;

  // Stripe ranks across the two leaves so every ring edge crosses the trunk.
  std::vector<collective::RankHome> homes(kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const std::uint32_t node = (r % 2) * kLeafWidth + r / 2;
    homes[r] = {&world.cluster().node(node), &world.cluster().hca(node)};
  }
  collective::CollectiveGroup group(world.sim(), std::move(homes), coll);
  group.start();
  world.run_until(3'000_ms);

  const auto& res = group.result();
  const bool ok = group.done() && res.ok;
  const double t_ms =
      ok ? static_cast<double>(res.finished_at - res.started_at) / 1e6 : 0.0;
  return {ok ? 1.0 : 0.0,
          t_ms,
          world.counter("fabric.buf_drops"),
          world.counter("fabric.pfc_pauses"),
          world.counter("fabric.retransmits")};
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::string_view kReads[] = {"--ecmp-seed"};
  const auto opts = parse_cli(argc, argv, kReads);
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
      const resex::routing::RoutingConfig route{.mode = m.mode,
                                                .ecmp_seed = ecmp_seed};
      p.run = [alltoall, route](const runner::TrialContext& ctx) {
        return run_spread(alltoall, route, ctx);
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
  // This bench does not read --buf-pkts: both rows run 64-packet buffers.
  const Buffers buffers(opts);
  std::vector<runner::GenericPoint> ring_points;
  for (const Mode& mode : {buffers.pfc(), buffers.pfc_vlshift()}) {
    runner::GenericPoint p;
    p.label = "striped-ring " + mode.name;
    p.params = {{"pattern", "ring"},
                {"vl_shift", mode.routing.vl_shift ? "1" : "0"}};
    p.run = [mode](const runner::TrialContext& ctx) {
      return run_ring(mode, ctx);
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
