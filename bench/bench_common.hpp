#pragma once
// Shared helpers for the figure-reproduction benches: each bench prints the
// series of one figure from the paper's Section VII as an aligned table on
// stdout. Sweep-style benches run on resex::runner (parallel trials,
// --seeds K replication with derived seed streams, --json/--csv export);
// run_figure_bench / run_generic_bench below are the shared drivers.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "fabric/verbs.hpp"
#include "hv/node.hpp"
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

/// Write the --json/--csv exports; an unwritable path must not abort the
/// process after the experiment already ran, so report it and fail the exit
/// code instead (the table is already on stdout by then).
inline int save_exports(const runner::ResultSink& sink,
                        const runner::RunnerOptions& opts, const auto& outcomes,
                        const char* bench) {
  int rc = 0;
  for (const auto& [path, kind] :
       {std::pair{opts.json_path, 'j'}, std::pair{opts.csv_path, 'c'}}) {
    if (path.empty()) continue;
    try {
      kind == 'j' ? sink.save_json(path, outcomes)
                  : sink.save_csv(path, outcomes);
    } catch (const std::exception& e) {
      std::cerr << bench << ": " << e.what() << "\n";
      rc = 1;
    }
  }
  return rc;
}

/// Timing goes to stderr, never into the table or the exported files, so a
/// parallel run's outputs stay byte-identical to a serial run's.
inline void report_timing(std::size_t points, std::size_t seeds,
                          std::size_t jobs, double wall_ms) {
  std::cerr << "# runner: " << points << " points x " << seeds << " seeds = "
            << points * seeds << " trials, jobs=" << jobs << ", "
            << static_cast<long long>(wall_ms) << " ms\n";
}

/// Shared driver for runner-backed figure benches: runs the sweep under the
/// CLI options, prints the aggregate table (mean per metric, ±95% CI
/// columns when --seeds > 1), and writes the --json/--csv exports.
inline int run_figure_bench(const runner::RunnerOptions& opts,
                            const std::string& figure, const std::string& what,
                            const runner::Sweep& sweep,
                            std::vector<runner::Metric> metrics) {
  print_scenario_header(figure, what);
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner::run_sweep(sweep.points(), opts);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  const runner::ResultSink sink(std::move(metrics));
  sink.table(outcomes).print(std::cout);
  int rc = save_exports(sink, opts, outcomes, figure.c_str());
  if (!opts.metrics_path.empty()) {
    try {
      runner::save_metrics_json(opts.metrics_path, outcomes);
    } catch (const std::exception& e) {
      std::cerr << figure << ": " << e.what() << "\n";
      rc = 1;
    }
  }
  report_timing(outcomes.size(), opts.seeds, opts.resolved_jobs(), wall_ms);
  return rc;
}

/// As run_figure_bench, but for benches whose trials are not a single
/// run_scenario call (generic seed -> metric-values points).
inline int run_generic_bench(const runner::RunnerOptions& opts,
                             const std::string& figure,
                             const std::string& what,
                             std::vector<runner::GenericPoint> points,
                             std::vector<std::string> metric_names) {
  print_scenario_header(figure, what);
  if (!opts.trace_path.empty() || !opts.metrics_path.empty()) {
    // Generic trials are opaque seed -> values functions; they do not run
    // through core::run_scenario, so there is no simulation to observe.
    std::cerr << figure
              << ": --trace/--metrics-json are ignored by generic benches\n";
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner::run_generic(std::move(points), opts);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  const auto sink = runner::ResultSink::named(std::move(metric_names));
  sink.table(outcomes).print(std::cout);
  const int rc = save_exports(sink, opts, outcomes, figure.c_str());
  report_timing(outcomes.size(), opts.seeds, opts.resolved_jobs(), wall_ms);
  return rc;
}

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
