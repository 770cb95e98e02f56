// Per-layer timing probes: host ns per call into one module's public
// functions, on inputs shaped like the workload that exercises the layer.
// Each probe is the median of several timed batches. The comment on each
// names the end-to-end metric and workload it should move.

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/broker.hpp"
#include "cluster/migration.hpp"
#include "cluster/service.hpp"
#include "congestion/config.hpp"
#include "core/cluster_exchange.hpp"
#include "core/policies.hpp"
#include "core/testbed.hpp"
#include "fabric/hca.hpp"
#include "finance/workload.hpp"
#include "hv/node.hpp"
#include "ibmon/ibmon.hpp"
#include "qos/config.hpp"
#include "routing/table.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace resex;
using namespace resex::sim::literals;
using Clock = std::chrono::steady_clock;

constexpr int kBatches = 5;

// Results folded into a sink the optimiser cannot see through.
volatile double g_sink = 0.0;

double ns_since(Clock::time_point a) {
  return std::chrono::duration<double, std::nano>(Clock::now() - a).count();
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Median over kBatches of (host ns of one `batch()` call / `ops`).
template <typename F>
double ns_per_op(double ops, F&& batch) {
  std::vector<double> v;
  for (int i = 0; i < kBatches; ++i) {
    const auto a = Clock::now();
    batch();
    v.push_back(ns_since(a) / ops);
  }
  return median(std::move(v));
}

// --- sim ---------------------------------------------------------------------

/// EventQueue push+pop at a steady depth. d64 is the shape of the testbed's
/// queue, d4096 of the fat-tree's (hundreds of in-flight packets, each with
/// serialization and propagation events). Moves sim_s_per_wall_s on every
/// workload, most on fattree_cluster.
double queue_ns(std::size_t depth) {
  constexpr std::size_t kOps = 200000;
  sim::EventQueue q;
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < depth; ++i) (void)q.push(t + i, [] {});
  return ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      auto ev = q.pop();
      ++t;
      (void)q.push(t + depth + (i * 37) % depth, [] {});
    }
  });
}

/// One `co_await sim.delay()` round trip (schedule, pop, resume). Moves
/// sim_s_per_wall_s on incast_pfc, where every message resumes coroutines.
double resume_ns() {
  constexpr int kOps = 200000;
  return ns_per_op(kOps, [] {
    sim::Simulation s;
    s.spawn([](sim::Simulation& sim) -> sim::Task {
      for (int i = 0; i < kOps; ++i) co_await sim.delay(1);
    }(s));
    s.run();
  });
}

// --- fabric ------------------------------------------------------------------

/// Two hosts on one switch with one guest each and `flows` connected QPs.
struct OneSwitch {
  explicit OneSwitch(const fabric::FabricConfig& cfg, std::uint32_t flows,
                     std::size_t buf_bytes)
      : fabric(sim, cfg), a(sim, "A", 4), b(sim, "B", 4),
        hca_a(&fabric.add_node(a)), hca_b(&fabric.add_node(b)) {
    auto& da = a.create_domain({.name = "src"});
    auto& db = b.create_domain({.name = "dst"});
    const auto pd_a = hca_a->alloc_pd(da);
    const auto pd_b = hca_b->alloc_pd(db);
    send_cq = &hca_a->create_cq(da, 4096);
    auto& recv_cq_a = hca_a->create_cq(da, 64);
    auto& cq_b = hca_b->create_cq(db, 64);
    src_buf = da.allocator().allocate(buf_bytes, mem::kPageSize);
    dst_buf = db.allocator().allocate(buf_bytes, mem::kPageSize);
    src_mr = hca_a->reg_mr(pd_a, da, src_buf, buf_bytes,
                           mem::Access::kLocalWrite);
    dst_mr = hca_b->reg_mr(
        pd_b, db, dst_buf, buf_bytes,
        mem::Access::kLocalWrite | mem::Access::kRemoteWrite);
    for (std::uint32_t i = 0; i < flows; ++i) {
      auto& qa = hca_a->create_qp(da, pd_a, *send_cq, recv_cq_a);
      auto& qb = hca_b->create_qp(db, pd_b, cq_b, cq_b);
      fabric::Fabric::connect(qa, qb);
      qps.push_back(&qa);
    }
  }

  /// Post one `bytes` RDMA write on every QP, run to quiescence, reap the
  /// send CQEs.
  void write_all(std::uint32_t bytes) {
    for (auto* qp : qps) {
      fabric::SendWr wr;
      wr.wr_id = ++wr_id;
      wr.opcode = fabric::Opcode::kRdmaWrite;
      wr.local_addr = src_buf;
      wr.lkey = src_mr.lkey;
      wr.length = bytes;
      wr.remote_addr = dst_buf;
      wr.rkey = dst_mr.rkey;
      hca_a->post_send(*qp, std::move(wr));
    }
    sim.run();
    while (auto cqe = send_cq->poll()) g_sink = g_sink + cqe->byte_len;
  }

  sim::Simulation sim;
  fabric::Fabric fabric;
  hv::Node a;
  hv::Node b;
  fabric::Hca* hca_a;
  fabric::Hca* hca_b;
  fabric::CompletionQueue* send_cq = nullptr;
  mem::GuestAddr src_buf = 0;
  mem::GuestAddr dst_buf = 0;
  mem::RegisteredRegion src_mr;
  mem::RegisteredRegion dst_mr;
  std::vector<fabric::QueuePair*> qps;
  std::uint64_t wr_id = 0;
};

/// Host ns per packet of 64 KB writes through one switch, `flows` at a time
/// on one port.
double packet_ns(const fabric::FabricConfig& cfg, std::uint32_t flows) {
  constexpr std::uint32_t kBytes = 64 * 1024;
  constexpr int kWrites = 40;
  OneSwitch net(cfg, flows, kBytes);
  const double packets =
      static_cast<double>(kWrites) * flows * cfg.packets_for(kBytes);
  return ns_per_op(packets, [&] {
    for (int i = 0; i < kWrites; ++i) net.write_all(kBytes);
  });
}

/// Hca::post_send to the send CQE of one write on an idle fabric.
double write_ns(std::uint32_t bytes, int writes) {
  OneSwitch net({}, 1, bytes);
  return ns_per_op(writes, [&] {
    for (int i = 0; i < writes; ++i) net.write_all(bytes);
  });
}

// --- routing -----------------------------------------------------------------

/// NextHopTable::lookup plus the ECMP hash, on the fattree_cluster shape:
/// 4 leaves and 2 spines, every cross-leaf pair with 2 candidates. Moves
/// sim_s_per_wall_s on fattree_cluster only.
double lookup_ns() {
  constexpr std::uint32_t kLeaves = 4;
  constexpr std::uint32_t kSwitches = kLeaves + 2;
  constexpr int kOps = 2000000;
  int ports[kSwitches] = {};
  routing::NextHopTable<int> table;
  for (std::uint32_t at = 0; at < kLeaves; ++at) {
    for (std::uint32_t dst = 0; dst < kLeaves; ++dst) {
      if (at == dst) continue;
      for (std::uint32_t k = 0; k < 2; ++k) {
        const std::uint32_t spine = kLeaves + (dst + k) % 2;
        table.add(at, dst, {spine, &ports[spine]});
      }
    }
  }
  table.compile(kSwitches);
  return ns_per_op(kOps, [&] {
    std::uint64_t sum = 0;
    for (int i = 0; i < kOps; ++i) {
      const auto qp = static_cast<std::uint32_t>(i);
      const std::uint32_t at = qp % kLeaves;
      const std::uint32_t dst = (at + 1 + (qp >> 2) % (kLeaves - 1)) % kLeaves;
      const auto span = table.lookup(at, dst);
      sum += span[routing::ecmp_hash(qp, 0, 1) % span.count].via;
    }
    g_sink = g_sink + static_cast<double>(sum);
  });
}

// --- hv, ibmon, core, finance ------------------------------------------------

/// CreditScheduler::set_cap (the cap change and the window re-layout it
/// triggers) on the testbed's server node: 8 PCPUs, dom0 and two guests.
/// Moves trial_wall_s on testbed_ioshares.
double set_cap_ns() {
  constexpr int kOps = 200000;
  sim::Simulation sim;
  hv::Node node(sim, "A", 8);
  (void)node.create_domain({.name = "rep"});
  auto& intf = node.create_domain({.name = "intf"});
  return ns_per_op(kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      node.scheduler().set_cap(intf.vcpu(), 10.0 + (i % 90));
    }
  });
}

/// IbMon::sample_now over full rings: the testbed's two watched guests with
/// a send and a receive CQ of 4096 entries each (BenchEx's ring size).
/// Moves trial_wall_s on testbed_ioshares.
double ibmon_sample_ns() {
  constexpr std::uint32_t kEntries = 4096;
  sim::Simulation sim;
  fabric::Fabric fabric(sim);
  hv::Node node(sim, "A", 4);
  auto& hca = fabric.add_node(node);
  ibmon::IbMon mon(sim);
  std::vector<fabric::CompletionQueue*> cqs;
  for (const char* name : {"rep", "intf"}) {
    auto& dom = node.create_domain({.name = name});
    dom.memory().set_foreign_mappable(true);
    cqs.push_back(&hca.create_cq(dom, kEntries));
    cqs.push_back(&hca.create_cq(dom, kEntries));
    mon.watch_domain(dom, hca.domain_cqs(dom.id()));
  }
  std::vector<double> v;
  for (int b = 0; b < kBatches; ++b) {
    for (auto* cq : cqs) {
      while (cq->poll()) {
      }
      for (std::uint32_t i = 0; i < kEntries; ++i) {
        fabric::Cqe cqe;
        cqe.wr_id = i;
        cqe.qp_num = cq->id();
        cqe.byte_len = 64 * 1024;
        cqe.opcode = static_cast<std::uint8_t>(
            fabric::CqeOpcode::kSendComplete);
        cq->produce(cqe);
      }
    }
    const auto a = Clock::now();
    mon.sample_now();
    v.push_back(ns_since(a));
  }
  return median(std::move(v));
}

/// IOSharesPolicy::on_interval for the testbed's two VMs, the reporting VM
/// over its SLA. Moves trial_wall_s on testbed_ioshares.
double on_interval_ns() {
  constexpr int kOps = 200000;
  core::IOSharesPolicy policy;
  core::ResosLedger ledger;
  ledger.add_vm(1);
  ledger.add_vm(2);
  std::vector<core::VmObservation> obs(2);
  obs[0] = {.id = 1, .cpu_pct = 40.0, .mtus = 120.0, .intf_pct = 25.0};
  obs[1] = {.id = 2, .cpu_pct = 60.0, .mtus = 900.0};
  return ns_per_op(kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      if (i % 2000 == 0) {
        ledger.replenish();
        policy.on_epoch_start(ledger);
      }
      const auto d = policy.on_interval(obs[i % 2], obs, ledger);
      if (d.new_cap) g_sink = g_sink + *d.new_cap;
    }
  });
}

/// The reporting VM's request: an 80-instrument quote. Moves trial_wall_s on
/// testbed_ioshares and fattree_cluster.
double quote_ns(std::uint64_t seed) {
  constexpr int kOps = 3000;
  finance::RequestProcessor proc(seed);
  return ns_per_op(kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      g_sink = g_sink + proc.process(finance::RequestKind::kQuote, 80).checksum;
    }
  });
}

// --- cluster -----------------------------------------------------------------

/// One ClusterBroker period (quote refresh over every node and trunk, then
/// the decide scan) on the fattree_cluster fabric at 16 nodes with its four
/// managed services deployed but idle. Moves sim_s_per_wall_s on
/// fattree_cluster.
double broker_ns(std::uint64_t seed) {
  constexpr int kPeriods = 2000;
  cluster::ClusterConfig ccfg;
  ccfg.nodes = 16;
  ccfg.topology = cluster::TopologyKind::kFatTree;
  congestion::CongestionConfig cong;
  cong.buffer_pkts = 64;
  cong.ecn_kmin = 16;
  cong.ecn_kmax = 48;
  cong.apply(ccfg.fabric);
  qos::QosConfig qos;
  qos.enabled = true;
  qos.apply(ccfg.fabric);
  ccfg.fabric.routing.mode = routing::RouteMode::kEcmp;
  cluster::Cluster cl(ccfg);
  std::vector<std::unique_ptr<cluster::Service>> services;
  for (std::uint32_t i = 0; i < 4; ++i) {
    services.push_back(std::make_unique<cluster::Service>(
        cl.hca(i), cl.hca(8 + i),
        core::reporting_config(64 * 1024, 2000.0, seed),
        "rep" + std::to_string(i)));
  }
  core::ClusterExchange exchange;
  cluster::MigrationEngine engine(cl);
  cluster::BrokerConfig bcfg;
  cluster::ClusterBroker broker(cl, exchange, engine, bcfg);
  for (auto& s : services) broker.manage(*s, 100.0);
  broker.start();
  cl.sim().run_until(cl.sim().now() + bcfg.period);  // first period settles
  return ns_per_op(kPeriods, [&] {
    cl.sim().run_until(cl.sim().now() + kPeriods * bcfg.period);
  });
}

// --- mem ---------------------------------------------------------------------

/// Node::create_domain with 2048 guest pages, the size every workload
/// domain has. Moves setup_s and peak_rss_mb on incast_pfc and
/// fattree_cluster.
double domain_ns() {
  constexpr int kDomains = 16;
  std::vector<double> v;
  for (int b = 0; b < kBatches; ++b) {
    sim::Simulation sim;
    hv::Node node(sim, "n", kDomains + 1);
    const auto a = Clock::now();
    for (int i = 0; i < kDomains; ++i) {
      (void)node.create_domain({.name = "vm", .mem_pages = 2048});
    }
    v.push_back(ns_since(a) / kDomains);
  }
  return median(std::move(v));
}

/// Hca::reg_mr of a 64 KB guest buffer (pin plus TPT entry). Moves setup_s
/// on incast_pfc and fattree_cluster.
double reg_mr_ns() {
  constexpr int kOps = 2000;
  sim::Simulation sim;
  fabric::Fabric fabric(sim);
  hv::Node node(sim, "A", 2);
  auto& hca = fabric.add_node(node);
  auto& dom = node.create_domain({.name = "vm"});
  const auto pd = hca.alloc_pd(dom);
  const auto buf = dom.allocator().allocate(64 * 1024, mem::kPageSize);
  std::vector<mem::MemKey> keys;
  keys.reserve(kOps);
  return ns_per_op(kOps, [&] {
    for (const auto k : keys) hca.dereg_mr(k);
    keys.clear();
    for (int i = 0; i < kOps; ++i) {
      keys.push_back(
          hca.reg_mr(pd, dom, buf, 64 * 1024, mem::Access::kLocalWrite).lkey);
    }
  });
}

}  // namespace

Values run_probes(std::uint64_t seed) {
  Values p;
  p["sim.queue_ns.d64"] = queue_ns(64);
  p["sim.queue_ns.d4096"] = queue_ns(4096);
  p["sim.resume_ns"] = resume_ns();
  // Host ns per kernel step on an incast_pfc-shaped run (100 ms simulated).
  // Moves sim_s_per_wall_s on incast_pfc.
  const Values steps = incast_step_profile(seed, 100.0);
  p["sim.event_ns_p50"] = steps.at("p50");
  p["sim.event_ns_p99"] = steps.at("p99");

  // One-switch 64 KB writes in each port mode. lossless moves
  // testbed_ioshares; pfc and flows16 move incast_pfc; ecn and qos move
  // fattree_cluster. flows16 is predicted not to move testbed_ioshares,
  // which has two flows per port.
  fabric::FabricConfig lossless;
  fabric::FabricConfig pfc;
  pfc.port_buffer_pkts = 64;
  pfc.pfc_enabled = true;
  fabric::FabricConfig ecn;
  ecn.port_buffer_pkts = 64;
  ecn.ecn_kmin_pkts = 16;
  ecn.ecn_kmax_pkts = 48;
  fabric::FabricConfig lanes;
  qos::QosConfig qos;
  qos.enabled = true;
  qos.apply(lanes);
  p["fabric.pkt_ns.lossless"] = packet_ns(lossless, 1);
  p["fabric.pkt_ns.pfc"] = packet_ns(pfc, 1);
  p["fabric.pkt_ns.ecn"] = packet_ns(ecn, 1);
  p["fabric.pkt_ns.qos"] = packet_ns(lanes, 1);
  p["fabric.pkt_ns.flows16"] = packet_ns(lossless, 16);
  // 4k moves incast_pfc, 2m moves testbed_ioshares.
  p["fabric.write_ns.4k"] = write_ns(4 * 1024, 2000);
  p["fabric.write_ns.2m"] = write_ns(2 * 1024 * 1024, 8);

  p["routing.lookup_ns.ecmp"] = lookup_ns();
  p["hv.set_cap_ns"] = set_cap_ns();
  p["ibmon.sample_ns"] = ibmon_sample_ns();
  p["core.on_interval_ns"] = on_interval_ns();
  p["finance.quote_ns"] = quote_ns(seed);
  p["cluster.decide_ns"] = broker_ns(seed);
  p["mem.domain_ns"] = domain_ns();
  p["mem.reg_mr_ns"] = reg_mr_ns();
  return p;
}

}  // namespace perfbench
