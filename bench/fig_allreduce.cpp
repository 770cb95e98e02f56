// All-reduce: N ranks run resex::collective's bulk-synchronous ring
// all-reduce (or all-gather / broadcast via --coll-algo) over a star or a
// deliberately oversubscribed 2-tier fat-tree, under four fabric modes:
//
//   lossless     infinite port buffers: queueing only, nothing drops.
//   taildrop     finite buffers, no marking: overflows cost NAK/RTO rounds
//                and every retransmission stalls the whole step barrier.
//   ecn+dcqcn    finite buffers + ECN marking + DCQCN-style per-QP rate
//                control: senders back off before the cliff.
//   pfc          the same finite buffers in lossless PFC mode: pause frames
//                one hop upstream instead of drops.
//   pfc+vlshift  PFC plus resex::routing's deadlock-free lane shifts: qos
//                lanes are on, and transfers crossing the striped ring's
//                wrap-around direction travel one virtual lane up, so the
//                per-lane pause dependency graph is acyclic and the ring
//                completes lossless where plain pfc deadlocks.
//
// The fat-tree places ring neighbours on opposite leaves (striped), so every
// ring edge crosses the single spine trunk: with leaf_width hosts per leaf
// and a 1x trunk, the incast-like phase is leaf_width:1 oversubscribed.
//
// Reported per point: completion time, algorithm bandwidth S/t, bus
// bandwidth S*(N-1)/N / t (the ring's wire-level figure of merit; its
// uncongested ideal is half the link rate), the ratio of the closed-form
// ideal completion time to the measured one, and retransmit/drop/mark/pause
// counters. On an uncongested star the ring must sit within 5% of closed
// form; the fat-tree rows show the taildrop-vs-ECN-vs-PFC gap -- including
// PFC's dark side: once a step exceeds the trunk buffers, the cyclic ring
// route turns per-hop pauses into a cyclic buffer dependency (a PFC
// deadlock), which the RC retry budget converts into a clean abort.
//
// --coll-ranks/--coll-bytes/--coll-chunk/--coll-algo/--coll-iters override
// the workload; --faults injects straggler/stall/flap plans into every trial
// through the mode, drawing from the scenarios' fault stream (a flapped ring
// terminates through the RC retry budget, reported as ok=0).
// Per-trial results are byte-identical for any --jobs value.

#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "collective/collective.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

/// Closed-form uncongested completion time of one iteration at link rate B.
double ideal_seconds(const collective::CollectiveConfig& c, double bps) {
  const double s = static_cast<double>(c.payload_bytes);
  const double n = c.ranks;
  switch (c.algorithm) {
    case collective::Algorithm::kRingAllReduce:
      return 2.0 * (n - 1.0) * (s / n) / bps;
    case collective::Algorithm::kAllGather:
      return (n - 1.0) * s / bps;  // sum over steps of 2^s blocks
    case collective::Algorithm::kBroadcast:
      return std::ceil(std::log2(n)) * s / bps;
  }
  return 0.0;
}

std::vector<double> run_allreduce(cluster::TopologyKind topo,
                                  const Mode& mode,
                                  const collective::CollectiveConfig& coll,
                                  const runner::TrialContext& ctx) {
  const std::uint32_t ranks = coll.ranks;
  // Two leaves, one spine, trunk at host-port rate: the striped ring is
  // leaf_width:1 oversubscribed on the trunk. With lane shifts the
  // collectives ride the default map's bulk SL.
  const std::uint32_t leaf_width = (ranks + 1) / 2;
  FlowWorld world(ctx,
                  {.nodes = ranks,
                   .pcpus_per_node = 2,
                   .topology = topo,
                   .leaf_width = leaf_width,
                   .spines = 1,
                   .trunk_bandwidth_scale = 1.0},
                  mode);
  auto& cluster = world.cluster();

  // Star: rank r on node r. Fat-tree: stripe ranks across the two leaves so
  // every ring edge (r, r+1) crosses the trunk.
  std::vector<collective::RankHome> homes(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const std::uint32_t node = topo == cluster::TopologyKind::kFatTree
                                   ? (r % 2) * leaf_width + r / 2
                                   : r;
    homes[r] = {&cluster.node(node), &cluster.hca(node)};
  }
  collective::CollectiveGroup group(world.sim(), std::move(homes), coll);
  group.start();

  const double ideal_s =
      ideal_seconds(coll, cluster.config().fabric.link_bytes_per_sec) *
      coll.iterations;
  // Generous cap: congested/faulted runs take a few times ideal; a flapped
  // ring additionally burns the full RC retry budget (~255 ms per death).
  const auto cap = static_cast<sim::SimDuration>(ideal_s * 1e9 * 100) + 2'000_ms;
  world.run_until(cap);

  const auto& res = group.result();
  const bool finished = group.done();
  const double t_s =
      finished && res.finished_at > res.started_at
          ? static_cast<double>(res.finished_at - res.started_at) / 1e9
          : 0.0;
  const double s_bytes =
      static_cast<double>(coll.payload_bytes) * coll.iterations;
  const double n = coll.ranks;
  const double algbw = t_s > 0 ? s_bytes / t_s / 1e9 : 0.0;
  const double busbw = t_s > 0 ? s_bytes * (n - 1.0) / n / t_s / 1e9 : 0.0;
  const double vs_closed = t_s > 0 ? ideal_s / t_s : 0.0;
  return {finished && res.ok ? 1.0 : 0.0,
          t_s * 1e3,
          algbw,
          busbw,
          vs_closed,
          world.counter("fabric.retransmits"),
          world.counter("fabric.buf_drops"),
          world.counter("fabric.ecn_marks"),
          world.counter("fabric.pfc_pauses")};
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::string_view kReads[] = {
      "--buf-pkts",   "--ecn-kmin",   "--ecn-kmax",  "--faults",
      "--coll-ranks", "--coll-bytes", "--coll-chunk", "--coll-algo",
      "--coll-iters"};
  const auto opts = parse_cli(argc, argv, kReads);

  const Buffers buffers(opts);
  std::vector<Mode> modes = {buffers.lossless(), buffers.taildrop(),
                             buffers.ecn(), buffers.pfc(),
                             buffers.pfc_vlshift()};
  for (Mode& mode : modes) mode.faults = opts.faults;

  collective::CollectiveConfig base;
  base.payload_bytes = opts.coll_bytes > 0 ? opts.coll_bytes : 4u << 20;
  base.chunk_bytes = opts.coll_chunk > 0 ? opts.coll_chunk : 256 * 1024;
  base.algorithm = opts.coll_algo.empty()
                       ? collective::Algorithm::kRingAllReduce
                       : collective::parse_algorithm(opts.coll_algo);
  base.iterations = opts.coll_iters > 0 ? opts.coll_iters : 1;
  const std::vector<std::uint32_t> rank_counts =
      opts.coll_ranks > 0 ? std::vector<std::uint32_t>{opts.coll_ranks}
                          : std::vector<std::uint32_t>{4, 8};

  std::vector<runner::GenericPoint> points;
  for (const auto topo :
       {resex::cluster::TopologyKind::kStar,
        resex::cluster::TopologyKind::kFatTree}) {
    const std::string tname =
        topo == resex::cluster::TopologyKind::kStar ? "star" : "fattree";
    for (const std::uint32_t ranks : rank_counts) {
      for (const Mode& mode : modes) {
        collective::CollectiveConfig coll = base;
        coll.ranks = ranks;
        runner::GenericPoint p;
        p.label = tname + " " + mode.name + " N=" + std::to_string(ranks);
        p.params = {{"topology", tname},
                    {"mode", mode.name},
                    {"ranks", std::to_string(ranks)},
                    {"algo", to_string(coll.algorithm)}};
        p.run = [topo, mode, coll](const runner::TrialContext& ctx) {
          return run_allreduce(topo, mode, coll, ctx);
        };
        points.push_back(std::move(p));
      }
    }
  }

  const int rc = run_bench(
      opts, "All-reduce: collective bandwidth vs topology and fabric mode",
      "N ranks, " + std::string(to_string(base.algorithm)) + " over " +
          std::to_string(base.payload_bytes >> 20) +
          "MiB in " + std::to_string(base.chunk_bytes >> 10) +
          "KiB chunks; the fat-tree stripes ring neighbours across two "
          "leaves\nover a 1x spine trunk (" + buffers.describe() + ").",
      std::move(points),
      {"ok", "time_ms", "algbw_GBps", "busbw_GBps", "vs_closed", "retx",
       "drops", "marks", "pauses"}).rc;

  std::cout << "\nOn the uncongested star the ring runs at the closed form "
               "(busbw -> link/2,\nvs_closed -> 1). Striped across the "
               "oversubscribed trunk, tail-drop burns\nNAK/RTO rounds on "
               "every overflow while ECN+DCQCN paces senders at the\nsource. "
               "PFC drops nothing -- but the ring's cyclic route turns its "
               "hop-by-hop\npauses into a cyclic buffer dependency once a "
               "step no longer fits in the\ntrunk buffers: the fabric "
               "deadlocks, the RC retry budget detects it, and the\ngroup "
               "aborts (ok=0) instead of wedging. Shrink --coll-bytes until "
               "a step\nfits and PFC completes drop-free. pfc+vlshift breaks "
               "the cycle instead:\nwrap-direction transfers ride one virtual "
               "lane up (resex::routing lane\nshifts), the per-lane pause "
               "graph is acyclic, and the striped ring completes\nlossless "
               "(ok=1, drops=0) at any payload.\n";
  return rc;
}
