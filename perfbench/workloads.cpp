// The three benchmark workloads. Each one stresses different layers, so that
// an optimisation of one layer has a workload that exercises it and one
// that bypasses it (where the prediction is "no change"):
//
//   testbed_ioshares  the paper's Section VII testbed through
//                     core::run_scenario. The only workload where hv (cap
//                     changes), ibmon (100 us sampling), core (IOShares at
//                     1 ms intervals) and benchex/finance do real work. Its
//                     fabric is the lossless single-lane Channel path with
//                     two flows per port; qos, routing, congestion are off.
//   incast_pfc        16 closed-loop senders RDMA-write 4 KB blocks into one
//                     receiver through one switch with 64-packet PFC ports,
//                     on a cluster::Cluster the benchmark builds itself. The
//                     smallest messages and most flows per port: per-message
//                     costs (verbs, WQE, CQE, coroutine resume), the
//                     Channel's per-flow lookup and backlog scans and PFC
//                     pause/resume dominate. No hv control, no multi-hop.
//   fattree_cluster   a 16-node 2-tier fat-tree through
//                     cluster::run_cluster_scenario with ECMP routing,
//                     2-class qos, 64-packet ECN+DCQCN ports and the broker
//                     with live migration: the deepest event queue,
//                     per-packet multi-hop routing, the VL arbiter, drops
//                     with RC retransmission and the cluster layers. PFC is
//                     kept out: a PFC fat-tree scenario stalls in its first
//                     milliseconds while still reporting 0% violations.
//
// `collective` and the parallel `runner` are deliberately not measured: the
// load is one process running one simulation at a time.

#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "cluster/scenario.hpp"
#include "cluster/topology.hpp"
#include "core/experiment.hpp"
#include "fabric/verbs.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace perfbench {

namespace {

using namespace resex;
using namespace resex::sim::literals;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Registry counts reported per layer. Absent metrics (a layer that never
// registered them on this workload) read as 0.
constexpr std::string_view kRegistryCounts[] = {
    "fabric.transfers",    "fabric.switch_hops",     "fabric.buf_drops",
    "fabric.ecn_marks",    "fabric.pfc_pauses",      "fabric.retransmits",
    "fabric.qp_fatal_errors", "congestion.cnps",     "congestion.rate_cuts",
    "hv.cap_changes",      "ibmon.samples",          "core.intervals",
    "core.cap_adjustments", "cluster.migrations",    "cluster.migration_bytes",
};

Values registry_counts(const obs::MetricsSnapshot& snap, bool qos_on) {
  Values out;
  for (const auto name : kRegistryCounts) out[std::string(name)] = 0.0;
  double packets = 0.0;
  for (const auto& s : snap.samples) {
    if (s.name.ends_with(".packets_sent")) {
      packets += s.value;  // one pull gauge per channel
    } else if (out.contains(s.name)) {
      out[s.name] = s.value;
    }
  }
  out["fabric.packets_sent"] = packets;
  // With lanes on, every launched packet is exactly one VL-arbiter grant,
  // so the packets summed over all channels equal the sum of
  // Channel::vl_grants (which the scenario API does not expose).
  out["qos.vl_grants"] = qos_on ? packets : 0.0;
  out["sim.events"] = 0.0;
  return out;
}

void require(TrialResult& r, bool ok, std::string what) {
  if (!ok) r.problems.push_back(std::move(what));
}

// --- testbed_ioshares --------------------------------------------------------

TrialResult testbed_ioshares(std::uint64_t seed, const std::string& trace) {
  TrialResult r;
  const auto t0 = Clock::now();
  core::ScenarioConfig cfg;
  cfg.policy = core::PolicyKind::kIOShares;
  cfg.seed = seed;
  cfg.collect_metrics = true;
  cfg.trace_path = trace;
  // Set-up is the SLA calibration probe run_scenario would otherwise run
  // inside the measured run; the benchmark runs it and passes it in.
  cfg.baseline_mean_us = core::measure_base_total_us(cfg);
  const auto t1 = Clock::now();
  {
    const core::ScenarioResult res = core::run_scenario(cfg);
    const auto t2 = Clock::now();
    r.run_s = seconds(t1, t2);
    r.sim_s = sim::to_sec(cfg.warmup + cfg.duration);

    const auto& rep = res.reporting.at(0);
    const auto& intf = res.interferer.value();
    std::uint64_t flagged = 0;
    std::uint64_t rep_intervals = 0;
    double intf_cap = 100.0;
    for (const auto& rec : res.timeline) {
      if (rec.vm == res.reporting_vm_id) {
        ++rep_intervals;
        if (rec.intf_pct > 0.0) ++flagged;
      } else if (rec.vm == res.interferer_vm_id) {
        intf_cap = rec.cap;
      }
    }
    auto& f = r.fingerprint;
    f["baseline_us"] = res.baseline_mean_us;
    f["rep.requests"] = static_cast<double>(rep.requests);
    f["rep.samples"] = static_cast<double>(rep.client_latency_us.count());
    f["rep.p50_us"] = rep.client_latency_us.median();
    f["rep.p99_us"] = rep.client_p99_us;
    f["rep.server_total_us"] = rep.total_us;
    f["intf.requests"] = static_cast<double>(intf.requests);
    f["intf.mbps"] = res.interferer_mbps;
    f["intf.final_cap"] = intf_cap;
    f["violation_pct"] = rep_intervals == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(flagged) /
                                   static_cast<double>(rep_intervals);
    r.counts = registry_counts(res.metrics, false);
    r.counts["benchex.requests"] = static_cast<double>(rep.requests);
    f["qp_fatal_errors"] = r.counts["fabric.qp_fatal_errors"];
    f["cap_changes"] = r.counts["hv.cap_changes"];

    // The 2000 req/s feed over the 1 s measured window.
    require(r, rep.client_latency_us.count() >= 1800,
            "reporting VM completed too few requests");
    require(r, intf.requests >= 100, "interferer's closed loop stalled");
    require(r, rep_intervals >= 1000, "controller ran too few intervals");
    require(r, r.counts["fabric.qp_fatal_errors"] == 0.0, "QP fatal errors");
  }
  r.trial_wall_s = seconds(t0, Clock::now());
  r.setup_s = seconds(t0, t1);
  return r;
}

// --- incast_pfc --------------------------------------------------------------

constexpr std::uint32_t kIncastSenders = 16;
constexpr std::uint32_t kIncastBlock = 4 * 1024;
constexpr std::uint32_t kIncastPortPkts = 64;
constexpr sim::SimDuration kIncastWarmup = 50_ms;
constexpr sim::SimTime kIncastEnd = 450_ms;

/// One guest with a verbs context, CQs, a QP and one registered buffer.
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

Endpoint make_endpoint(hv::Node& node, fabric::Hca& hca,
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
                     mem::Access::kLocalWrite | mem::Access::kRemoteWrite);
  return ep;
}

struct Sender {
  Endpoint ep;
  std::uint64_t writes = 0;
  sim::Samples latency_us;
  bool finished = false;  // the closed loop ran out its window cleanly
};

/// Closed-loop writer: the next block is posted once the previous one's
/// send CQE (last byte acknowledged) is back.
sim::Task sender_loop(sim::Simulation& sim, Sender& s, mem::GuestAddr remote,
                      std::uint32_t rkey, sim::SimDuration start,
                      sim::SimTime end) {
  co_await sim.delay(start);
  while (sim.now() < end) {
    const sim::SimTime t0 = sim.now();
    fabric::SendWr wr;
    wr.wr_id = s.writes + 1;
    wr.opcode = fabric::Opcode::kRdmaWrite;
    wr.local_addr = s.ep.buf;
    wr.lkey = s.ep.mr.lkey;
    wr.length = kIncastBlock;
    wr.remote_addr = remote;
    wr.rkey = rkey;
    co_await s.ep.verbs->post_send(*s.ep.qp, std::move(wr));
    const fabric::Cqe cqe = co_await s.ep.verbs->next_cqe(*s.ep.send_cq);
    if (cqe.status != 0) co_return;
    ++s.writes;
    if (t0 >= kIncastWarmup) {
      s.latency_us.add(static_cast<double>(sim.now() - t0) / 1e3);
    }
  }
  s.finished = true;
}

/// The incast cluster: one receiver (node 0) and kIncastSenders senders on
/// one switch, so the receiver's downlink is the 16:1 port.
struct Incast {
  explicit Incast(std::uint64_t seed, sim::SimTime end)
      : cluster(config()) {
    auto& recv_node = cluster.node(0);
    recv = make_endpoint(recv_node, cluster.hca(0), "recv_vm",
                         std::uint64_t{kIncastSenders} * kIncastBlock);
    senders.reserve(kIncastSenders);
    for (std::uint32_t i = 0; i < kIncastSenders; ++i) {
      auto& s = *senders.emplace_back(std::make_unique<Sender>());
      s.ep = make_endpoint(cluster.node(i + 1), cluster.hca(i + 1),
                           "send_vm" + std::to_string(i), kIncastBlock);
      auto& rqp = cluster.hca(0).create_qp(*recv.domain, recv.pd,
                                           *recv.send_cq, *recv.recv_cq);
      fabric::Fabric::connect(*s.ep.qp, rqp);
    }
    // Jittered starts break the senders' phase lock; the seed picks them.
    sim::Rng jitter(sim::derive(seed, 0x1ca5));
    for (std::uint32_t i = 0; i < kIncastSenders; ++i) {
      const auto start = static_cast<sim::SimDuration>(
          jitter.uniform(0.0, static_cast<double>(10_us)));
      cluster.sim().spawn(sender_loop(
          cluster.sim(), *senders[i],
          recv.buf + std::uint64_t{i} * kIncastBlock, recv.mr.rkey, start,
          end));
    }
  }

  static cluster::ClusterConfig config() {
    cluster::ClusterConfig cfg;
    cfg.nodes = kIncastSenders + 1;
    cfg.topology = cluster::TopologyKind::kStar;
    cfg.fabric.port_buffer_pkts = kIncastPortPkts;
    cfg.fabric.pfc_enabled = true;
    return cfg;
  }

  cluster::Cluster cluster;
  Endpoint recv;
  std::vector<std::unique_ptr<Sender>> senders;
};

TrialResult incast_pfc(std::uint64_t seed, const std::string& trace) {
  TrialResult r;
  const auto t0 = Clock::now();
  {
    Incast inc(seed, kIncastEnd);
    auto& sim = inc.cluster.sim();
    if (!trace.empty()) sim.tracer().enable();
    const auto t1 = Clock::now();
    r.setup_s = seconds(t0, t1);
    // Senders stop posting at kIncastEnd; the run drains what is in flight.
    sim.run();
    r.run_s = seconds(t1, Clock::now());
    r.sim_s = sim::to_sec(sim.now());

    sim::Samples pooled;
    std::uint64_t writes = 0;
    std::uint64_t min_writes = ~std::uint64_t{0};
    bool all_finished = true;
    for (const auto& s : inc.senders) {
      for (const double v : s->latency_us.values()) pooled.add(v);
      writes += s->writes;
      min_writes = std::min(min_writes, s->writes);
      all_finished = all_finished && s->finished;
    }
    r.counts = registry_counts(sim.metrics().snapshot(sim.now()), false);
    r.counts["sim.events"] = static_cast<double>(sim.events_processed());
    auto& f = r.fingerprint;
    f["writes"] = static_cast<double>(writes);
    f["min_sender_writes"] = static_cast<double>(min_writes);
    f["p50_us"] = pooled.median();
    f["p99_us"] = pooled.percentile(99.0);
    f["end_ns"] = static_cast<double>(sim.now());
    for (const char* k : {"fabric.buf_drops", "fabric.pfc_pauses",
                          "fabric.retransmits", "fabric.qp_fatal_errors"}) {
      f[k] = r.counts[k];
    }
    require(r, all_finished, "a sender's closed loop did not finish");
    // Line rate bounds the 16:1 port at ~105 k blocks over the window;
    // PFC may pause senders but must not starve any of them.
    require(r, writes >= 80000, "too few writes completed");
    require(r, min_writes >= 2000, "a sender was starved");
    require(r, f["fabric.buf_drops"] == 0.0, "PFC fabric dropped packets");
    require(r, f["fabric.qp_fatal_errors"] == 0.0, "QP fatal errors");
    if (!trace.empty()) obs::save_trace(trace, sim.tracer());
  }
  r.trial_wall_s = seconds(t0, Clock::now());
  return r;
}

// --- fattree_cluster ---------------------------------------------------------

cluster::ClusterScenarioConfig fattree_config(std::uint64_t seed) {
  cluster::ClusterScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.topology = cluster::TopologyKind::kFatTree;
  cfg.congestion.buffer_pkts = 64;
  cfg.congestion.ecn_kmin = 16;
  cfg.congestion.ecn_kmax = 48;
  cfg.congestion.rate_control = true;
  cfg.qos.enabled = true;
  cfg.routing.mode = routing::RouteMode::kEcmp;
  cfg.migration_enabled = true;
  cfg.warmup = 100_ms;
  cfg.duration = 100_ms;
  cfg.seed = seed;
  return cfg;
}

TrialResult fattree_cluster(std::uint64_t seed, const std::string& trace) {
  TrialResult r;
  const auto t0 = Clock::now();
  cluster::ClusterScenarioConfig cfg = fattree_config(seed);
  {
    // Set-up is the SLA calibration run_cluster_scenario would otherwise
    // run inside the measured run: a solo run on the same topology (no
    // interferers, no migration, 300 ms), the 0 sentinels stopping it from
    // calibrating again. The limits derived from it are passed in.
    cluster::ClusterScenarioConfig solo = cfg;
    solo.with_interferers = false;
    solo.migration_enabled = false;
    solo.duration = 300_ms;
    solo.sla_limit_us = 0.0;
    solo.baseline_total_us = 0.0;
    const auto base = cluster::run_cluster_scenario(solo);
    cfg.sla_limit_us = base.services.at(0).client_mean_us *
                       (1.0 + cfg.sla_threshold_pct / 100.0);
    cfg.baseline_total_us = base.services.at(0).server_total_us;
  }
  cfg.collect_metrics = true;
  cfg.trace_path = trace;
  const auto t1 = Clock::now();
  {
    const cluster::ClusterScenarioResult res =
        cluster::run_cluster_scenario(cfg);
    r.run_s = seconds(t1, Clock::now());
    r.sim_s = sim::to_sec(cfg.warmup + cfg.duration);

    r.counts = registry_counts(res.metrics, true);
    auto& f = r.fingerprint;
    f["sla_limit_us"] = res.sla_limit_us;
    f["violation_pct"] = res.violation_pct;
    f["migrations"] = static_cast<double>(res.migration.migrations);
    f["migration_bytes"] = static_cast<double>(res.migration.bytes);
    f["migration_pause_ns"] =
        static_cast<double>(res.migration.pause_ns_total);
    for (const char* k : {"fabric.buf_drops", "fabric.ecn_marks",
                          "fabric.retransmits", "fabric.qp_fatal_errors",
                          "congestion.cnps"}) {
      f[k] = r.counts[k];
    }
    const double expected =
        cfg.reporting_rate * sim::to_sec(cfg.duration);
    r.counts["benchex.requests"] = 0.0;
    for (const auto& s : res.services) {
      r.counts["benchex.requests"] += static_cast<double>(s.requests);
      f[s.name + ".samples"] = static_cast<double>(s.samples);
      f[s.name + ".mean_us"] = s.client_mean_us;
      f[s.name + ".p99_us"] = s.client_p99_us;
      f[s.name + ".final_node"] = s.final_node;
      require(r, static_cast<double>(s.samples) >= 0.8 * expected,
              s.name + " completed too few requests");
    }
    for (const auto& s : res.interferers) {
      f[s.name + ".requests"] = static_cast<double>(s.requests);
      require(r, s.requests >= 20, s.name + "'s closed loop stalled");
    }
    require(r, res.migration.failed == 0, "a migration failed");
    require(r, r.counts["fabric.qp_fatal_errors"] == 0.0, "QP fatal errors");
  }
  r.trial_wall_s = seconds(t0, Clock::now());
  r.setup_s = seconds(t0, t1);
  return r;
}

}  // namespace

TrialResult run_trial(const std::string& workload, std::uint64_t seed,
                      const std::string& trace_path) {
  if (workload == "testbed_ioshares") return testbed_ioshares(seed, trace_path);
  if (workload == "incast_pfc") return incast_pfc(seed, trace_path);
  if (workload == "fattree_cluster") return fattree_cluster(seed, trace_path);
  throw std::invalid_argument("unknown workload: " + workload);
}

Values incast_step_profile(std::uint64_t seed, double end_ms) {
  Incast inc(seed, static_cast<sim::SimTime>(end_ms * 1e6));
  auto& sim = inc.cluster.sim();
  std::vector<std::uint32_t> ns;
  ns.reserve(1u << 20);
  for (;;) {
    const auto a = Clock::now();
    if (!sim.step()) break;
    ns.push_back(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - a)
            .count()));
  }
  const auto at = [&](double q) {
    auto it = ns.begin() + static_cast<std::ptrdiff_t>(
                               q * static_cast<double>(ns.size() - 1));
    std::nth_element(ns.begin(), it, ns.end());
    return static_cast<double>(*it);
  };
  return {{"p50", at(0.50)}, {"p99", at(0.99)}};
}

}  // namespace perfbench
