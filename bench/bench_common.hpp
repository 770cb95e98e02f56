#pragma once
// Shared helpers for the figure-reproduction benches: each bench prints the
// series of one figure from the paper's Section VII as an aligned table on
// stdout. Runner benches run on resex::runner (parallel trials, --seeds K
// replication with derived seed streams, --json/--csv export, per-trial
// --trace/--metrics-json); run_bench below is the shared driver.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "congestion/dcqcn.hpp"
#include "core/experiment.hpp"
#include "fabric/verbs.hpp"
#include "hv/node.hpp"
#include "qos/config.hpp"
#include "runner/runner.hpp"
#include "sim/report.hpp"
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

/// Parse the standard runner CLI; on --help or a bad flag, prints to the
/// right stream and exits. Returns the options otherwise.
inline runner::RunnerOptions parse_cli(int argc, char** argv) {
  runner::RunnerOptions opts;
  try {
    opts = runner::parse_options(argc, argv);
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
            << static_cast<long long>(wall_ms) << " ms\n";
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

// --- fabric modes (fig_incast, fig_pfc, fig_allreduce, fig_routing) ---------

/// One fabric configuration under comparison.
struct Mode {
  std::string name;
  std::uint32_t buf_pkts = 0;  // 0 = infinite (lossless)
  std::uint32_t ecn_kmin = 0;
  std::uint32_t ecn_kmax = 0;
  bool rate_control = false;  // DCQCN per-QP rate control
  bool pfc = false;
  bool vl_shift = false;  // qos lanes + deadlock-free lane shifts
  // DCQCN controller knobs (fig_incast's parameter sweep moves them).
  congestion::DcqcnConfig dcqcn{};
};

inline void apply_mode(fabric::FabricConfig& cfg, const Mode& mode) {
  cfg.port_buffer_pkts = mode.buf_pkts;
  cfg.ecn_kmin_pkts = mode.ecn_kmin;
  cfg.ecn_kmax_pkts = mode.ecn_kmax;
  cfg.pfc_enabled = mode.pfc;
  if (mode.vl_shift) {
    // Lane shifts need qos lanes: the default two-class map, then one
    // reserved lane above it for shifted traffic.
    qos::QosConfig qcfg;
    qcfg.enabled = true;
    qcfg.apply(cfg);
    cfg.routing.vl_shift = true;
    cfg.reserve_shift_lane();
  }
}

/// The mode's DCQCN rate controller over `fabric`, or null without one.
inline std::unique_ptr<congestion::RateController> make_rate_controller(
    fabric::Fabric& fabric, const Mode& mode) {
  if (!mode.rate_control) return nullptr;
  return std::make_unique<congestion::RateController>(fabric, mode.dcqcn);
}

/// The finite buffer the lossy modes share: --buf-pkts (default 64
/// packets), ECN marking from --ecn-kmin to --ecn-kmax (default a quarter
/// and three quarters of the buffer).
struct Buffers {
  std::uint32_t pkts;
  std::uint32_t kmin;
  std::uint32_t kmax;

  explicit Buffers(const runner::RunnerOptions& opts)
      : pkts(opts.buf_pkts > 0 ? opts.buf_pkts : 64),
        kmin(opts.ecn_kmax > 0 ? opts.ecn_kmin : pkts / 4),
        kmax(opts.ecn_kmax > 0 ? opts.ecn_kmax : (pkts * 3) / 4) {}

  /// "buf=64 pkts, Kmin=16, Kmax=48", as the bench headers print it.
  [[nodiscard]] std::string describe() const {
    return "buf=" + std::to_string(pkts) + " pkts, Kmin=" +
           std::to_string(kmin) + ", Kmax=" + std::to_string(kmax);
  }

  [[nodiscard]] Mode lossless() const { return {.name = "lossless"}; }
  [[nodiscard]] Mode taildrop() const {
    return {.name = "taildrop", .buf_pkts = pkts};
  }
  [[nodiscard]] Mode ecn() const {
    return {.name = "ecn+dcqcn",
            .buf_pkts = pkts,
            .ecn_kmin = kmin,
            .ecn_kmax = kmax,
            .rate_control = true};
  }
  [[nodiscard]] Mode pfc() const {
    return {.name = "pfc", .buf_pkts = pkts, .pfc = true};
  }
  [[nodiscard]] Mode pfc_vlshift() const {
    return {.name = "pfc+vlshift", .buf_pkts = pkts, .pfc = true,
            .vl_shift = true};
  }
};

// --- closed-loop RDMA-write endpoints (fig_incast, fig_pfc, fig_qos,
// fig_routing) ----------------------------------------------------------------

/// Size of one closed-loop RDMA write.
inline constexpr std::uint32_t kWriteBytes = 64 * 1024;
/// Latency samples start after this warm-up.
inline constexpr sim::SimDuration kWarmup = 100_ms;

/// One guest with a verbs context and a single registered buffer (mirrors
/// the test fixture's endpoint bundle; benches cannot link the test tree).
struct Endpoint {
  hv::Domain* domain = nullptr;
  std::unique_ptr<fabric::Verbs> verbs;
  std::uint32_t pd = 0;
  fabric::CompletionQueue* send_cq = nullptr;
  fabric::CompletionQueue* recv_cq = nullptr;
  fabric::QueuePair* qp = nullptr;
  mem::GuestAddr buf = 0;
  mem::RegisteredRegion mr;
};

inline Endpoint make_endpoint(hv::Node& node, fabric::Hca& hca,
                              const std::string& name, std::size_t buf_bytes) {
  Endpoint ep;
  ep.domain = &node.create_domain({.name = name, .mem_pages = 2048});
  ep.verbs = std::make_unique<fabric::Verbs>(hca, *ep.domain);
  ep.pd = hca.alloc_pd(*ep.domain);
  ep.send_cq = &hca.create_cq(*ep.domain, 1024);
  ep.recv_cq = &hca.create_cq(*ep.domain, 1024);
  ep.qp = &hca.create_qp(*ep.domain, ep.pd, *ep.send_cq, *ep.recv_cq);
  ep.buf = ep.domain->allocator().allocate(buf_bytes, mem::kPageSize);
  ep.mr = hca.reg_mr(ep.pd, *ep.domain, ep.buf, buf_bytes,
                     mem::Access::kLocalWrite | mem::Access::kRemoteWrite |
                         mem::Access::kRemoteRead);
  return ep;
}

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

}  // namespace resex::bench
