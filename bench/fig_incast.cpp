// Incast: N closed-loop senders RDMA-write 64KB blocks into one receiver
// through a single switch, so the receiver's downlink port is oversubscribed
// N:1. Three fabric modes at the same offered load:
//
//   lossless     infinite port buffers (the historical resex fabric): nothing
//                drops, latency is pure queueing at the hot port.
//   taildrop     finite buffers (--buf-pkts worth), no marking: full ports
//                drop, RC recovers via NAK/RTO, tails blow up with timeouts.
//   ecn+dcqcn    the same finite buffers plus ECN marking and DCQCN-style
//                per-QP rate control (resex::congestion): senders back off
//                before the buffer fills, so drops (and their tails) vanish.
//
// Runner-backed via generic points: modes x fan-in run in parallel (--jobs),
// replicated over derived seeds (--seeds), exported with --json/--csv.
// Per-trial results are byte-identical for any --jobs value.

#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congestion/dcqcn.hpp"
#include "fabric/verbs.hpp"
#include "hv/node.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

using namespace resex;
using namespace resex::bench;
using namespace resex::sim::literals;

constexpr sim::SimDuration kMeasure = 400_ms;

struct Mode {
  std::string name;
  std::uint32_t buf_pkts = 0;   // 0 = infinite (lossless)
  std::uint32_t ecn_kmin = 0;
  std::uint32_t ecn_kmax = 0;
  bool rate_control = false;
  // Controller knobs for the DCQCN parameter-sweep table; the defaults keep
  // the headline table exactly what it always was.
  congestion::DcqcnConfig dcqcn{};
};

std::vector<double> run_incast(std::uint32_t senders, const Mode& mode,
                               std::uint64_t seed) {
  sim::Simulation sim;
  fabric::FabricConfig cfg;
  cfg.port_buffer_pkts = mode.buf_pkts;
  cfg.ecn_kmin_pkts = mode.ecn_kmin;
  cfg.ecn_kmax_pkts = mode.ecn_kmax;
  fabric::Fabric fabric(sim, cfg);

  std::unique_ptr<congestion::RateController> rate_controller;
  if (mode.rate_control) {
    rate_controller =
        std::make_unique<congestion::RateController>(fabric, mode.dcqcn);
  }

  // Node 0 receives; nodes 1..N send. All share the default switch, so the
  // receiver's downlink is the N:1 port.
  std::vector<std::unique_ptr<hv::Node>> nodes;
  std::vector<fabric::Hca*> hcas;
  for (std::uint32_t i = 0; i <= senders; ++i) {
    nodes.push_back(std::make_unique<hv::Node>(
        sim, i == 0 ? "recv" : "send" + std::to_string(i), 4));
    hcas.push_back(&fabric.add_node(*nodes.back()));
  }

  // The receiver exposes one 64KB slot per sender in a single region.
  Endpoint recv = make_endpoint(*nodes[0], *hcas[0], "recv_vm",
                                std::uint64_t{senders} * kWriteBytes);
  std::vector<Endpoint> send_eps;
  std::vector<fabric::QueuePair*> recv_qps;
  for (std::uint32_t i = 0; i < senders; ++i) {
    send_eps.push_back(make_endpoint(*nodes[i + 1], *hcas[i + 1],
                                     "send_vm" + std::to_string(i),
                                     kWriteBytes));
    recv_qps.push_back(&hcas[0]->create_qp(*recv.domain, recv.pd,
                                           *recv.send_cq, *recv.recv_cq));
    fabric::Fabric::connect(*send_eps.back().qp, *recv_qps.back());
  }

  // Jittered starts break the senders' phase lock (and give --seeds its
  // replicate-to-replicate variation); the load itself is deterministic.
  const sim::SimTime end = kWarmup + kMeasure;
  std::vector<std::unique_ptr<sim::Samples>> latencies;
  sim::Rng jitter(sim::derive(seed, 0x1ca5));
  for (std::uint32_t i = 0; i < senders; ++i) {
    latencies.push_back(std::make_unique<sim::Samples>());
    const auto start = static_cast<sim::SimDuration>(jitter.uniform(
        0.0, static_cast<double>(10_us)));
    sim.spawn(sender_loop(sim, send_eps[i],
                          recv.buf + std::uint64_t{i} * kWriteBytes,
                          recv.mr.rkey, start, end, *latencies[i]));
  }

  // Goodput is measured over the post-warmup window only.
  std::uint64_t bytes_at_warmup = 0;
  sim.spawn([](sim::Simulation& s, fabric::Hca& hca,
               std::uint64_t& out) -> sim::Task {
    co_await s.delay(kWarmup);
    out = hca.downlink().bytes_sent();
  }(sim, *hcas[0], bytes_at_warmup));

  sim.run_until(end + 50_ms);  // drain in-flight retransmissions

  sim::Samples pooled;
  for (const auto& s : latencies) {
    for (const double v : s->values()) pooled.add(v);
  }
  const auto& down = hcas[0]->downlink();
  const double goodput_mbps =
      static_cast<double>(down.bytes_sent() - bytes_at_warmup) /
      sim::to_sec(kMeasure + 50_ms) / 1e6;
  return {static_cast<double>(pooled.count()),
          pooled.median(),
          pooled.percentile(99.0),
          static_cast<double>(down.buf_drops()),
          static_cast<double>(down.ecn_marks()),
          static_cast<double>(
              sim.metrics().counter("fabric.retransmits").value()),
          goodput_mbps};
}

}  // namespace

int main(int argc, char** argv) {

  const auto opts = parse_cli(argc, argv);

  // Headline comparison: same 64-packet port buffer for both lossy modes,
  // marking from 16 packets, hard-mark at 48. --buf-pkts/--ecn-kmin/
  // --ecn-kmax override the lossy rows.
  const std::uint32_t buf = opts.buf_pkts > 0 ? opts.buf_pkts : 64;
  const std::uint32_t kmin = opts.ecn_kmax > 0 ? opts.ecn_kmin : buf / 4;
  const std::uint32_t kmax = opts.ecn_kmax > 0 ? opts.ecn_kmax : (buf * 3) / 4;
  const std::vector<Mode> modes = {
      {.name = "lossless"},
      {.name = "taildrop", .buf_pkts = buf},
      {.name = "ecn+dcqcn",
       .buf_pkts = buf,
       .ecn_kmin = kmin,
       .ecn_kmax = kmax,
       .rate_control = true},
  };

  std::vector<resex::runner::GenericPoint> points;
  for (const std::uint32_t senders : {4u, 8u, 16u}) {
    for (const Mode& mode : modes) {
      resex::runner::GenericPoint p;
      p.label = mode.name + " " + std::to_string(senders) + ":1";
      p.params = {{"mode", mode.name},
                  {"senders", std::to_string(senders)},
                  {"buf_pkts", std::to_string(mode.buf_pkts)}};
      p.run = [senders, mode](std::uint64_t seed) {
        return run_incast(senders, mode, seed);
      };
      points.push_back(std::move(p));
    }
  }

  int rc = run_generic_bench(
      opts, "Incast: finite buffers, ECN and DCQCN rate control",
      "N closed-loop senders RDMA-write 64KB blocks to one receiver through "
      "one switch;\nthe receiver downlink port is the N:1 bottleneck "
      "(buf=" + std::to_string(buf) + " pkts, Kmin=" + std::to_string(kmin) +
          ", Kmax=" + std::to_string(kmax) + ").",
      std::move(points),
      {"reqs", "p50_us", "p99_us", "drops", "marks", "retx", "goodput_MBps"});

  std::cout << "\nWith tail-drop alone every overflow costs a NAK/RTO round "
               "and the p99\ncollapses; ECN marks ahead of the cliff and "
               "DCQCN throttles senders at\nthe source, holding the same "
               "goodput with (near-)zero drops.\n\n";

  // --- table 2: DCQCN parameter sensitivity at a fixed 8:1 fan-in ------------
  // One knob moves per row against the ecn+dcqcn baseline: the alpha EWMA
  // gain g (how hard a mark cuts), the CNP pacing interval (how often the
  // destination may complain), and the rate floor (how far a flow can be
  // squeezed). --json/--csv exports for this table get a ".dcqcn" infix so
  // they never clobber the headline table's files.
  const congestion::DcqcnConfig base_dcqcn{};
  struct Variant {
    std::string label;
    congestion::DcqcnConfig dcqcn;
  };
  std::vector<Variant> variants = {
      {"baseline (g=1/16 cnp=50us floor=1MB)", base_dcqcn}};
  for (const auto& [label, g] :
       {std::pair{std::string("g=1/4"), 1.0 / 4.0},
        std::pair{std::string("g=1/64"), 1.0 / 64.0}}) {
    Variant v{label, base_dcqcn};
    v.dcqcn.alpha_g = g;
    variants.push_back(std::move(v));
  }
  for (const auto& [label, us] : {std::pair{std::string("cnp=10us"), 10},
                                  std::pair{std::string("cnp=200us"), 200}}) {
    Variant v{label, base_dcqcn};
    v.dcqcn.cnp_interval = us * sim::kMicrosecond;
    variants.push_back(std::move(v));
  }
  // Fair share at 8:1 is ~128 MB/s: the first floor stays below it (should
  // be invisible), the second sits above it (8 x 192 MB/s oversubscribes the
  // port no matter what the controller does).
  for (const auto& [label, mb] : {std::pair{std::string("floor=64MB"), 64},
                                  std::pair{std::string("floor=192MB"), 192}}) {
    Variant v{label, base_dcqcn};
    v.dcqcn.min_rate = mb * 1024.0 * 1024.0;
    variants.push_back(std::move(v));
  }

  constexpr std::uint32_t kSweepSenders = 8;
  std::vector<resex::runner::GenericPoint> sweep_points;
  for (const Variant& v : variants) {
    Mode mode{.name = "ecn+dcqcn",
              .buf_pkts = buf,
              .ecn_kmin = kmin,
              .ecn_kmax = kmax,
              .rate_control = true,
              .dcqcn = v.dcqcn};
    resex::runner::GenericPoint p;
    p.label = v.label;
    p.params = {{"mode", "ecn+dcqcn"},
                {"senders", std::to_string(kSweepSenders)},
                {"variant", v.label}};
    p.run = [mode](std::uint64_t seed) {
      return run_incast(kSweepSenders, mode, seed);
    };
    sweep_points.push_back(std::move(p));
  }

  auto sweep_opts = opts;
  const auto infix = [](std::string path) {
    if (path.empty()) return path;
    const auto dot = path.rfind('.');
    return dot == std::string::npos ? path + ".dcqcn"
                                    : path.insert(dot, ".dcqcn");
  };
  sweep_opts.json_path = infix(sweep_opts.json_path);
  sweep_opts.csv_path = infix(sweep_opts.csv_path);
  const int rc2 = run_generic_bench(
      sweep_opts, "DCQCN parameter sweep (8:1 incast)",
      "Same finite-buffer incast, ecn+dcqcn mode only, one controller knob\n"
      "varied per row: alpha gain g, CNP pacing interval, and the rate "
      "floor.",
      std::move(sweep_points),
      {"reqs", "p50_us", "p99_us", "drops", "marks", "retx", "goodput_MBps"});
  if (rc == 0) rc = rc2;

  std::cout << "\nA hotter gain (g=1/4) cuts deeper per mark, a colder one "
               "(g=1/64) reacts\nslowly and lets the queue grow; sparse CNPs "
               "(200us) under-throttle and start\ndropping, dense ones "
               "(10us) over-throttle; a high rate floor defeats the\n"
               "controller outright and brings the tail-drop cliff back.\n";
  return rc;
}
