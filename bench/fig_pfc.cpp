// Lossless fabrics compared: PFC per-hop pause vs its alternatives.
//
// Part 1 — 8:1 single-switch incast, four fabric modes at the same load:
//   lossless     infinite port buffers (the historical resex fabric).
//   taildrop     finite buffers, no marking: overflows drop, RC recovers.
//   ecn+dcqcn    finite buffers + ECN marking + DCQCN-style rate control.
//   pfc          the same finite buffers, lossless: the hot port pauses its
//                feeders at XOFF instead of dropping (drops must be 0).
//
// Part 2 — head-of-line blocking over the fat-tree (resex::cluster shape):
// three aggressors on leaf 0 incast into a receiver on leaf 1 while a victim
// flow (leaf 0 -> a *different* host on leaf 1) shares only the trunks —
// which have ample capacity. Under ECN+DCQCN the aggressors are throttled at
// their sources and the victim keeps line rate; under PFC the pause tree
// grows backwards from the hot port (downlink -> spine trunk -> leaf trunk
// -> every sender uplink on leaf 0) and gates the victim too, although
// nothing on its own path is congested. The victim_MBps column measures
// exactly that collateral damage; `pauses` counts XOFF assertions (the
// pause-storm footprint).
//
// Runner-backed via generic points; per-trial results are byte-identical for
// any --jobs value.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

constexpr sim::SimDuration kMeasure = 300_ms;
constexpr sim::SimDuration kDrain = 50_ms;
constexpr std::uint64_t kJitterStream = 0x9fc;

/// Part 1: 8:1 incast through one switch, as fig_incast but with a PFC row.
/// Returns {reqs, p50_us, p99_us, drops, pauses, goodput_MBps, victim_MBps,
/// victim_p99_us} (the victim columns are 0 here — no victim flow).
std::vector<double> run_incast(std::uint32_t senders, const Mode& mode,
                               const runner::TrialContext& ctx) {
  FlowWorld world(ctx, {.nodes = senders + 1}, mode);
  std::vector<Flow> flows;
  for (std::uint32_t i = 1; i <= senders; ++i) flows.push_back({i, 0});
  world.run(flows, kJitterStream, kMeasure, kDrain);

  const sim::Samples pooled = world.latency_us();
  const auto& down = world.cluster().hca(0).downlink();
  return {static_cast<double>(pooled.count()),
          pooled.median(),
          pooled.percentile(99.0),
          static_cast<double>(down.buf_drops()),
          static_cast<double>(down.pauses_sent()),
          world.mbps(world.down_bytes(0)),
          0.0,
          0.0};
}

/// Part 2: fat-tree HoL measurement. Aggressors n1..n3 (leaf 0) incast into
/// n4 (leaf 1); the victim writes n0 -> n5, sharing only the (uncongested)
/// trunks with the incast. Returns the same column vector as run_incast,
/// with goodput = incast receiver, victim_MBps = the victim's own rate and
/// victim_p99_us = the victim's per-write p99 latency — the latency baseline
/// the qos experiment (bench_fig_qos) measures its isolation against:
/// goodput alone hides HoL pain that shows up as pause-stretched tails.
std::vector<double> run_fat_tree(const Mode& mode,
                                 const runner::TrialContext& ctx) {
  // Fat trunks: the 3 GiB/s the aggressors + victim can offer never
  // congests them on its own — only PFC's backpressure fills them up.
  FlowWorld world(ctx,
                  {.nodes = 8,
                   .topology = cluster::TopologyKind::kFatTree,
                   .leaf_width = 4,
                   .spines = 1,
                   .trunk_bandwidth_scale = 8.0},
                  mode);
  world.run({{1, 4}, {2, 4}, {3, 4}, {0, 5}}, kJitterStream, kMeasure,
            kDrain);

  const sim::Samples pooled = world.latency_us(0, 3);
  return {static_cast<double>(pooled.count()),
          pooled.median(),
          pooled.percentile(99.0),
          world.counter("fabric.buf_drops"),
          world.counter("fabric.pfc_pauses"),
          world.mbps(world.down_bytes(4)),
          world.mbps(world.down_bytes(5)),
          world.latency_us(3, 4).percentile(99.0)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse_cli(argc, argv, Buffers::kFlags);

  const Buffers buffers(opts);
  const Mode lossless = buffers.lossless();
  const Mode ecn = buffers.ecn();
  const Mode pfc = buffers.pfc();

  std::vector<runner::GenericPoint> points;
  constexpr std::uint32_t kIncastSenders = 8;
  for (const Mode& mode : {lossless, buffers.taildrop(), ecn, pfc}) {
    runner::GenericPoint p;
    p.label = "incast " + mode.name + " 8:1";
    p.params = {{"part", "incast"}, {"mode", mode.name}};
    p.run = [mode](const runner::TrialContext& ctx) {
      return run_incast(kIncastSenders, mode, ctx);
    };
    points.push_back(std::move(p));
  }
  for (const Mode& mode : {lossless, ecn, pfc}) {
    runner::GenericPoint p;
    p.label = "fat-tree " + mode.name + " victim";
    p.params = {{"part", "fat-tree"}, {"mode", mode.name}};
    p.run = [mode](const runner::TrialContext& ctx) {
      return run_fat_tree(mode, ctx);
    };
    points.push_back(std::move(p));
  }

  const auto [outcomes, rc] = run_bench(
      opts, "PFC: lossless per-hop pause vs tail-drop and ECN/DCQCN",
      "Part 1: 8 closed-loop senders RDMA-write 64KB blocks into one "
      "receiver through one\nswitch (" + buffers.describe() +
          "; PFC XOFF/XON at 60%/30% of the "
          "buffer).\nPart 2: 3 aggressors on leaf 0 incast into leaf 1 over "
          "a 2-tier fat-tree while a\nvictim flow (leaf 0 -> leaf 1, "
          "different hosts) shares only the fat trunks;\nvictim_MBps shows "
          "what PFC's pause tree (HoL blocking) costs it.",
      std::move(points),
      {"reqs", "p50_us", "p99_us", "drops", "pauses", "goodput_MBps",
       "victim_MBps", "victim_p99_us"});

  constexpr std::size_t kDropsCol = 3;
  constexpr std::size_t kVictimCol = 6;
  const double pfc_drops = mean_of(outcomes, "incast pfc 8:1", kDropsCol) +
                           mean_of(outcomes, "fat-tree pfc victim", kDropsCol);
  const double victim_pfc =
      mean_of(outcomes, "fat-tree pfc victim", kVictimCol);
  const double victim_ecn =
      mean_of(outcomes, "fat-tree ecn+dcqcn victim", kVictimCol);
  const double degradation =
      victim_ecn > 0.0 ? 100.0 * (1.0 - victim_pfc / victim_ecn) : 0.0;
  std::cout << "\nPFC is lossless: " << pfc_drops
            << " buffer drops across the pfc rows (must be 0).\n"
            << "HoL blocking: the victim flow shares only uncongested trunks "
               "with the incast,\nyet runs at "
            << static_cast<std::uint64_t>(victim_pfc)
            << " MB/s under PFC vs "
            << static_cast<std::uint64_t>(victim_ecn)
            << " MB/s under ECN+DCQCN ("
            << static_cast<std::int64_t>(degradation)
            << "% degradation):\nthe pause tree gates whole upstream ports, "
               "not flows. ECN+DCQCN throttles the\noffenders at their "
               "sources and leaves the victim at line rate.\n";
  return rc;
}
