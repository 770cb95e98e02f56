#pragma once
// Shared helpers for the figure-reproduction benches: each bench prints the
// series of one figure from the paper's Section VII as an aligned table on
// stdout. Runner benches run on resex::runner (parallel trials, --seeds K
// replication with derived seed streams, --json/--csv export, per-trial
// --trace/--metrics-json); run_bench below is the shared driver.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <iomanip>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"
#include "core/experiment.hpp"
#include "core/fabric_setup.hpp"
#include "fabric/endpoint.hpp"
#include "hv/node.hpp"
#include "qos/config.hpp"
#include "routing/config.hpp"
#include "runner/runner.hpp"
#include "sim/report.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace resex::bench {

using namespace resex::sim::literals;

inline sim::Cell num(double v) { return sim::Cell{v}; }
inline sim::Cell num(std::uint64_t v) {
  return sim::Cell{static_cast<std::int64_t>(v)};
}
inline sim::Cell txt(std::string s) { return sim::Cell{std::move(s)}; }

/// Standard run length for figure benches: 1 warm-up epoch fragment plus
/// 1.2 s of measured time (covers a full Resos epoch).
inline core::ScenarioConfig figure_config() {
  core::ScenarioConfig cfg;
  cfg.warmup = 100_ms;
  cfg.duration = 1200_ms;
  return cfg;
}

/// Human-readable buffer size ("64KB", "2MB").
inline std::string buffer_name(std::uint32_t bytes) {
  if (bytes >= 1024u * 1024u && bytes % (1024u * 1024u) == 0) {
    return std::to_string(bytes / (1024u * 1024u)) + "MB";
  }
  return std::to_string(bytes / 1024u) + "KB";
}

inline void print_scenario_header(const std::string& figure,
                                  const std::string& what) {
  sim::print_heading(std::cout, figure);
  std::cout << what << "\n\n";
}

/// The fabric flags runner::RunnerOptions::apply overlays onto a scenario
/// config: --faults, the congestion flags and the qos flags, then the
/// routing flags, which only a config that routes reads.
inline constexpr std::string_view kOverlayFlags[] = {
    "--faults",
    "--buf-pkts", "--ecn-kmin", "--ecn-kmax", "--buf-bytes", "--pool-alpha",
    "--pfc",
    "--qos", "--sl-vl-map", "--vl-weights", "--vl-hi-limit",
    "--routing", "--ecmp-seed", "--vl-shift"};
/// What a core::ScenarioConfig sweep reads: all but the three routing flags.
inline constexpr auto kScenarioFlags =
    std::span(kOverlayFlags).first<std::size(kOverlayFlags) - 3>();

/// Parse the standard runner CLI of a bench whose code reads the fabric and
/// workload flags `reads` (the common flags are always read); on --help or a
/// bad or unread flag, prints to the right stream and exits. Returns the
/// options otherwise.
inline runner::RunnerOptions parse_cli(
    int argc, char** argv, std::span<const std::string_view> reads) {
  runner::RunnerOptions opts;
  try {
    opts = runner::parse_options(argc, argv, reads);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    runner::print_usage(std::cerr, argv[0]);
    std::exit(2);
  }
  if (opts.help) {
    runner::print_usage(std::cout, argv[0]);
    std::exit(0);
  }
  return opts;
}

/// Outcomes of one bench table, for benches that summarise them, and the
/// exit code of its exports.
struct BenchRun {
  std::vector<runner::PointOutcome> outcomes;
  int rc = 0;
};

/// The rest of the runner's stderr timing line: what the trials' observed
/// runs cost the simulator, as events, simulated seconds and simulated
/// seconds per wall second; with one job also wall ns per event. Calibration
/// runs are not observed: their wall time counts, their events do not.
inline void print_run_cost(const std::vector<runner::PointOutcome>& outcomes,
                           double wall_ms, bool serial) {
  sim::RunCost cost;
  for (const auto& point : outcomes) {
    for (const auto& trial : point.trials) cost += trial.cost;
  }
  const double sim_s = static_cast<double>(cost.sim_ns) / 1e9;
  const auto flags = std::cerr.flags();
  const auto precision = std::cerr.precision();
  std::cerr << ", " << cost.events << " events, " << std::fixed
            << std::setprecision(3) << sim_s << " sim-s, "
            << sim_s / (wall_ms / 1e3) << " sim-s/wall-s";
  if (serial && cost.events > 0) {
    std::cerr << std::setprecision(1) << ", "
              << wall_ms * 1e6 / static_cast<double>(cost.events)
              << " ns/event";
  }
  std::cerr << "\n";
  std::cerr.flags(flags);
  std::cerr.precision(precision);
}

/// Shared driver for every runner bench: runs the points under the CLI
/// options, prints the header and the aggregate table (mean per metric,
/// ±95% CI columns when --seeds > 1), and writes the --json/--csv/
/// --metrics-json exports. `tag` (e.g. ".dcqcn") marks a bench's second
/// table: it goes before the extension of all four output paths (--json,
/// --csv, --trace, --metrics-json), so that table never overwrites the
/// first's files. An unwritable export path must not abort the process
/// after the experiment already ran, so it is reported and fails the exit
/// code instead (the table is already on stdout by then). Timing goes to
/// stderr, never into the table or the exported files, so a parallel run's
/// outputs stay byte-identical to a serial run's.
inline BenchRun run_bench(runner::RunnerOptions opts, const std::string& figure,
                          const std::string& what,
                          std::vector<runner::GenericPoint> points,
                          std::vector<std::string> metric_names,
                          const std::string& tag = "") {
  for (auto* path : {&opts.json_path, &opts.csv_path, &opts.trace_path,
                     &opts.metrics_path}) {
    *path = runner::tagged_path(*path, tag);
  }
  print_scenario_header(figure, what);
  const auto t0 = std::chrono::steady_clock::now();
  BenchRun run{runner::run_trials(std::move(points), opts), 0};
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  const runner::ResultSink sink(std::move(metric_names));
  sink.table(run.outcomes).print(std::cout);
  const auto save = [&](const std::string& path, const auto& write) {
    if (path.empty()) return;
    try {
      write(path);
    } catch (const std::exception& e) {
      std::cerr << figure << ": " << e.what() << "\n";
      run.rc = 1;
    }
  };
  save(opts.json_path,
       [&](const std::string& p) { sink.save_json(p, run.outcomes); });
  save(opts.csv_path,
       [&](const std::string& p) { sink.save_csv(p, run.outcomes); });
  save(opts.metrics_path, [&](const std::string& p) {
    runner::save_metrics_json(p, run.outcomes);
  });
  std::cerr << "# runner: " << run.outcomes.size() << " points x "
            << opts.seeds << " seeds = " << run.outcomes.size() * opts.seeds
            << " trials, jobs=" << opts.resolved_jobs() << ", "
            << static_cast<long long>(wall_ms) << " ms";
  print_run_cost(run.outcomes, wall_ms, opts.resolved_jobs() == 1);
  return run;
}

/// run_bench over a scenario sweep: every trial is one core::run_scenario
/// call, reported through `metrics`.
inline int run_figure_bench(const runner::RunnerOptions& opts,
                            const std::string& figure, const std::string& what,
                            const runner::Sweep& sweep,
                            std::vector<runner::Metric> metrics) {
  std::vector<std::string> names;
  for (const auto& m : metrics) names.push_back(m.name);
  return run_bench(opts, figure, what,
                   runner::scenario_points(sweep.points(), std::move(metrics),
                                           opts),
                   std::move(names))
      .rc;
}

/// Replicate-mean of value column `col` of the point labelled `label` (0
/// when there is no such point).
inline double mean_of(const std::vector<runner::PointOutcome>& outcomes,
                      const std::string& label, std::size_t col) {
  for (const auto& o : outcomes) {
    if (o.label != label) continue;
    double sum = 0.0;
    for (const auto& trial : o.trials) sum += trial.values[col];
    return sum / static_cast<double>(o.trials.size());
  }
  return 0.0;
}

// --- the write-flow world (fig_incast, fig_pfc, fig_qos, fig_routing,
// fig_allreduce) -----------------------------------------------------------

/// One fabric configuration under comparison, in the scenario configs'
/// field names and types (core::apply_fabric and core::FabricControls read
/// it).
struct Mode {
  std::string name;
  congestion::CongestionConfig congestion{};
  qos::QosConfig qos{};
  routing::RoutingConfig routing{};
  std::string faults{};  // fault::FaultPlan spec; empty = fault-free
};

/// The finite buffer the lossy modes share: --buf-pkts (default 64
/// packets), ECN marking from --ecn-kmin to --ecn-kmax (default a quarter
/// and three quarters of the buffer, at least one packet).
struct Buffers {
  /// The flags a Buffers reads.
  static constexpr std::string_view kFlags[] = {"--buf-pkts", "--ecn-kmin",
                                                "--ecn-kmax"};

  std::uint32_t pkts;
  std::uint32_t kmin;
  std::uint32_t kmax;

  explicit Buffers(const runner::RunnerOptions& opts)
      : pkts(opts.buf_pkts > 0 ? opts.buf_pkts : 64),
        kmin(opts.ecn_kmax > 0 ? opts.ecn_kmin : std::max(1u, pkts / 4)),
        kmax(opts.ecn_kmax > 0 ? opts.ecn_kmax
                               : std::max(kmin, (pkts * 3) / 4)) {}

  /// "buf=64 pkts, Kmin=16, Kmax=48", as the bench headers print it.
  [[nodiscard]] std::string describe() const {
    return "buf=" + std::to_string(pkts) + " pkts, Kmin=" +
           std::to_string(kmin) + ", Kmax=" + std::to_string(kmax);
  }

  [[nodiscard]] Mode lossless() const { return {.name = "lossless"}; }
  [[nodiscard]] Mode taildrop() const {
    return {.name = "taildrop", .congestion = {.buffer_pkts = pkts}};
  }
  [[nodiscard]] Mode ecn() const {
    return {.name = "ecn+dcqcn",
            .congestion = {.buffer_pkts = pkts,
                           .ecn_kmin = kmin,
                           .ecn_kmax = kmax,
                           .rate_control = true}};
  }
  [[nodiscard]] Mode pfc() const {
    return {.name = "pfc", .congestion = {.buffer_pkts = pkts, .pfc = true}};
  }
  /// PFC with deadlock-free lane shifts: the default two-class qos map, and
  /// one lane reserved above it for shifted traffic.
  [[nodiscard]] Mode pfc_vlshift() const {
    return {.name = "pfc+vlshift",
            .congestion = {.buffer_pkts = pkts, .pfc = true},
            .qos = {.enabled = true},
            .routing = {.vl_shift = true}};
  }
};

/// Size of one closed-loop RDMA write.
inline constexpr std::uint32_t kWriteBytes = 64 * 1024;
/// Latency samples and the window's byte counts start after this warm-up.
inline constexpr sim::SimDuration kWarmup = 100_ms;

using fabric::Endpoint;

/// Closed-loop writer: kWriteBytes RDMA writes back to back, per-write
/// latency sampled from the send CQE (post -> completion, i.e. last byte
/// ACKed) once the warm-up is over.
inline sim::Task sender_loop(sim::Simulation& sim, Endpoint& ep,
                             mem::GuestAddr remote_addr, std::uint32_t rkey,
                             sim::SimDuration start_jitter, sim::SimTime end,
                             sim::Samples& latency_us) {
  co_await sim.delay(start_jitter);
  std::uint64_t wr_id = 0;
  while (sim.now() < end) {
    const sim::SimTime t0 = sim.now();
    fabric::SendWr wr;
    wr.wr_id = ++wr_id;
    wr.opcode = fabric::Opcode::kRdmaWrite;
    wr.local_addr = ep.buf;
    wr.lkey = ep.mr.lkey;
    wr.length = kWriteBytes;
    wr.remote_addr = remote_addr;
    wr.rkey = rkey;
    co_await ep.verbs->post_send(*ep.qp, std::move(wr));
    const fabric::Cqe cqe = co_await ep.verbs->next_cqe(*ep.send_cq);
    if (cqe.status != 0) co_return;  // QP errored out (retry exhaustion)
    if (sim.now() >= kWarmup) {
      latency_us.add(static_cast<double>(sim.now() - t0) / 1e3);
    }
  }
}

/// One closed-loop writer: node `src` RDMA-writes into node `dst` on
/// service level `sl`.
struct Flow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint8_t sl = 0;
};

/// The world of a hand-built fabric bench: a cluster::Cluster (star or
/// fat-tree) under one Mode, with the trial's observer attached after the
/// cluster is built and then the mode's controls (its DCQCN rate controller
/// and fault injector, faults on node 0's dom0). A world either runs write
/// flows (run) or, for a bench that drives its own workload on cluster(),
/// just runs observed (run_until).
class FlowWorld {
 public:
  FlowWorld(const runner::TrialContext& ctx, cluster::ClusterConfig cfg,
            const Mode& mode = {})
      : cluster_(with_mode(std::move(cfg), mode)),
        observer_(ctx.observe(cluster_.sim())),
        controls_(cluster_.fabric(), mode.congestion,
                  fault::FaultPlan::parse(mode.faults), ctx.seed,
                  &cluster_.node(0)),
        seed_(ctx.seed) {}
  // Its writers and warm-up snapshot hold the world's address.
  FlowWorld(const FlowWorld&) = delete;
  FlowWorld& operator=(const FlowWorld&) = delete;

  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] sim::Simulation& sim() { return cluster_.sim(); }

  /// Run to `until` with the observer started and finished around it.
  void run_until(sim::SimTime until) {
    observer_.start();
    sim().run_until(until);
    observer_.finish();
  }

  /// Connect `flows` in list order — one receive region per destination
  /// node, one kWriteBytes slot in it per incoming flow, the flow's SL on
  /// both QPs — spawn their writers with starts jittered up to 10 us from
  /// stream `jitter_stream` of the trial seed, snapshot per-node downlink
  /// bytes and per-trunk busy time and bytes at kWarmup, and run warm-up +
  /// `measure` + `drain`.
  void run(const std::vector<Flow>& flows, std::uint64_t jitter_stream,
           sim::SimDuration measure, sim::SimDuration drain = 0) {
    window_ = measure + drain;
    const std::uint32_t nodes = cluster_.node_count();
    std::vector<std::uint32_t> fan_in(nodes, 0);
    for (const Flow& f : flows) ++fan_in[f.dst];
    receivers_.resize(nodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      if (fan_in[n] == 0) continue;
      receivers_[n] = endpoint(n, "recv_vm" + std::to_string(n),
                               std::uint64_t{fan_in[n]} * kWriteBytes);
    }
    std::vector<std::uint32_t> next_slot(nodes, 0);
    std::vector<mem::GuestAddr> remote_addr;
    for (const Flow& f : flows) {
      Endpoint& ep = senders_.emplace_back(endpoint(
          f.src, "send_vm" + std::to_string(senders_.size()), kWriteBytes));
      ep.qp->set_service_level(f.sl);
      Endpoint& dst = receivers_[f.dst];
      fabric::QueuePair& rqp = cluster_.hca(f.dst).create_qp(
          *dst.domain, dst.pd, *dst.send_cq, *dst.recv_cq);
      rqp.set_service_level(f.sl);
      fabric::Fabric::connect(*ep.qp, rqp);
      remote_addr.push_back(dst.buf +
                            std::uint64_t{next_slot[f.dst]++} * kWriteBytes);
    }

    sim::Rng jitter(sim::derive(seed_, jitter_stream));
    latency_.resize(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto start = static_cast<sim::SimDuration>(
          jitter.uniform(0.0, static_cast<double>(10_us)));
      sim().spawn(sender_loop(sim(), senders_[i], remote_addr[i],
                              receivers_[flows[i].dst].mr.rkey, start,
                              kWarmup + measure, latency_[i]));
    }
    sim().spawn([](FlowWorld& w) -> sim::Task {
      co_await w.sim().delay(kWarmup);
      Snapshot& at = w.at_warmup_;
      for (std::uint32_t n = 0; n < w.cluster_.node_count(); ++n) {
        at.down_bytes.push_back(w.cluster_.hca(n).downlink().bytes_sent());
      }
      w.cluster_.fabric().for_each_trunk(
          [&](std::uint32_t, std::uint32_t, fabric::Channel& ch) {
            at.trunk_busy.push_back(ch.busy_time());
            at.trunk_bytes.push_back(ch.bytes_sent());
          });
    }(*this));
    run_until(kWarmup + measure + drain);
  }

  /// Write latencies (us) of flows [first, last) (default: every flow),
  /// pooled in flow order.
  [[nodiscard]] sim::Samples latency_us(std::size_t first = 0,
                                        std::size_t last = SIZE_MAX) const {
    sim::Samples pooled;
    for (std::size_t i = first; i < std::min(last, latency_.size()); ++i) {
      for (const double v : latency_[i].values()) pooled.add(v);
    }
    return pooled;
  }

  /// Node `n`'s downlink bytes since the warm-up snapshot.
  [[nodiscard]] std::uint64_t down_bytes(std::uint32_t n) {
    return cluster_.hca(n).downlink().bytes_sent() -
           at_warmup_.down_bytes.at(n);
  }
  /// `bytes` over the post-warm-up window (measure + drain), in MB/s.
  [[nodiscard]] double mbps(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / sim::to_sec(window_) / 1e6;
  }
  /// What run() records at kWarmup: per-node downlink bytes, and per-trunk
  /// busy time and bytes in for_each_trunk order.
  struct Snapshot {
    std::vector<std::uint64_t> down_bytes;
    std::vector<sim::SimDuration> trunk_busy;
    std::vector<std::uint64_t> trunk_bytes;
  };
  [[nodiscard]] const Snapshot& at_warmup() const { return at_warmup_; }
  /// The trial's metrics counter `name`.
  [[nodiscard]] double counter(std::string_view name) {
    return static_cast<double>(sim().metrics().counter(name).value());
  }

 private:
  static cluster::ClusterConfig with_mode(cluster::ClusterConfig cfg,
                                          const Mode& mode) {
    core::apply_fabric(mode, cfg.fabric);
    return cfg;
  }

  /// A fresh guest `name` on node `n` with a `bytes` buffer endpoint.
  Endpoint endpoint(std::uint32_t n, const std::string& name,
                    std::size_t bytes) {
    return fabric::make_endpoint(
        cluster_.hca(n),
        cluster_.node(n).create_domain({.name = name, .mem_pages = 2048}),
        bytes, 1024);
  }

  cluster::Cluster cluster_;
  sim::Observer observer_;
  core::FabricControls controls_;
  std::uint64_t seed_;
  sim::SimDuration window_ = 0;
  std::deque<Endpoint> senders_;
  std::vector<Endpoint> receivers_;
  std::vector<sim::Samples> latency_;
  Snapshot at_warmup_;
};

}  // namespace resex::bench
