#include "cluster/broker.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/trace.hpp"
#include "qos/config.hpp"

namespace resex::cluster {

namespace {
/// The destination's blended price must undercut the source's by at least
/// this much, or the move is not worth its blackout.
constexpr double kMinPriceAdvantage = 0.05;
/// No re-migration of the same service within this window.
constexpr sim::SimDuration kCooldown = 100 * sim::kMillisecond;
/// Agent reports required before the signal is trusted.
constexpr std::uint64_t kMinReports = 32;
}  // namespace

ClusterBroker::ClusterBroker(Cluster& cluster, core::ClusterExchange& exchange,
                             MigrationEngine& engine, BrokerConfig config)
    : cluster_(&cluster), exchange_(&exchange), engine_(&engine),
      config_(config), prev_(cluster.node_count()) {}

void ClusterBroker::manage(benchex::Service& svc, double baseline_us) {
  services_.push_back(Managed{&svc, baseline_us, std::nullopt});
}

void ClusterBroker::start() {
  if (started_) return;
  started_ = true;
  cluster_->sim().spawn(run());
}

sim::Task ClusterBroker::run() {
  auto& sim = cluster_->sim();
  for (;;) {
    co_await sim.delay(config_.period);
    post_quotes();
    decide();
  }
}

double ClusterBroker::port_congestion(const fabric::Channel& ch,
                                      std::uint64_t d_pkts,
                                      std::uint64_t d_marks,
                                      std::uint64_t d_drops) {
  // Dropped packets never count as sent, so the offered load this period is
  // sent + dropped; marks are a subset of sent.
  const double offered = static_cast<double>(d_pkts + d_drops);
  const double loss_frac =
      offered <= 0.0 ? 0.0
                     : static_cast<double>(d_marks + d_drops) / offered;
  // Occupancy fraction in whatever unit the port accounts in: bytes against
  // the byte cap (or the shared pool size) when byte occupancy is on,
  // packets against the packet cap otherwise.
  const auto& cfg = ch.config();
  double occ_frac = 0.0;
  if (cfg.byte_occupancy()) {
    const std::uint64_t cap_bytes = cfg.port_buffer_bytes > 0
                                        ? cfg.port_buffer_bytes
                                        : cfg.switch_pool_bytes;
    occ_frac = static_cast<double>(ch.backlog_bytes()) /
               static_cast<double>(cap_bytes);
  } else if (cfg.port_buffer_pkts > 0) {
    occ_frac = static_cast<double>(ch.backlog_packets()) /
               cfg.port_buffer_pkts;
  }
  return std::min(1.0, std::max(loss_frac, occ_frac));
}

void ClusterBroker::post_quotes() {
  auto& sim = cluster_->sim();
  const auto period = static_cast<double>(config_.period);

  // One pass over the trunks (enumeration order is creation order, and the
  // per-trunk snapshots are indexed the same way — deterministic). With
  // static routing a switch's congestion is its worst adjacent trunk's
  // price: one hot trunk is a hot path. Under multipath (resex::routing) a
  // flow takes the best of its equal-cost candidates — in the 2-tier fat
  // tree every outgoing trunk of a leaf is a candidate — so a switch prices
  // at the *cheapest* trunk per direction (worse of up and down): one idle
  // spine link means the path the packet would actually take is clear.
  struct SwPrice {
    double worst = 0.0;
    double best_out = 1.0;
    double best_in = 1.0;
  };
  const bool multipath = cluster_->fabric().config().routing.multipath();
  std::unordered_map<std::uint32_t, SwPrice> switch_price;
  std::size_t trunk_idx = 0;
  cluster_->fabric().for_each_trunk([&](std::uint32_t from, std::uint32_t to,
                                        fabric::Channel& ch) {
    if (trunk_idx >= trunk_prev_.size()) trunk_prev_.resize(trunk_idx + 1);
    TrunkSnapshot& prev = trunk_prev_[trunk_idx++];
    const std::uint64_t pkts = ch.packets_sent();
    const std::uint64_t marks = ch.ecn_marks();
    const std::uint64_t drops = ch.buf_drops();
    const double price = port_congestion(ch, pkts - prev.pkts,
                                         marks - prev.marks,
                                         drops - prev.drops);
    prev = TrunkSnapshot{pkts, marks, drops};
    SwPrice& out_side = switch_price[from];
    out_side.worst = std::max(out_side.worst, price);
    out_side.best_out = std::min(out_side.best_out, price);
    SwPrice& in_side = switch_price[to];
    in_side.worst = std::max(in_side.worst, price);
    in_side.best_in = std::min(in_side.best_in, price);
  });
  std::unordered_map<std::uint32_t, double> switch_congestion;
  for (const auto& [sw, p] : switch_price) {
    switch_congestion[sw] =
        multipath ? std::max(p.best_out, p.best_in) : p.worst;
  }

  for (std::uint32_t i = 0; i < cluster_->node_count(); ++i) {
    auto& hca = cluster_->hca(i);
    auto& node = cluster_->node(i);
    const sim::SimDuration up = hca.uplink().busy_time();
    const sim::SimDuration down = hca.downlink().busy_time();
    const double io = static_cast<double>(
                          std::max(up - prev_[i].up, down - prev_[i].down)) /
                      period;
    // Node congestion: the worse of its leaf's trunks and its own downlink
    // port (incast pain shows up at the downlink even on a star fabric).
    const std::uint64_t dpkts = hca.downlink().packets_sent();
    const std::uint64_t dmarks = hca.downlink().ecn_marks();
    const std::uint64_t ddrops = hca.downlink().buf_drops();
    double congestion = port_congestion(hca.downlink(),
                                        dpkts - prev_[i].down_pkts,
                                        dmarks - prev_[i].down_marks,
                                        ddrops - prev_[i].down_drops);
    if (const auto it = switch_congestion.find(cluster_->switch_of_node(i));
        it != switch_congestion.end()) {
      congestion = std::max(congestion, it->second);
    }
    PortSnapshot next{up, down, dpkts, dmarks, ddrops, prev_[i].up_vl_paused};
    const std::uint32_t pcpus = node.scheduler().pcpu_count();
    const std::uint32_t free = node.free_pcpu_count();
    core::NodePriceQuote q;
    q.node_id = i;
    q.io_price = io;
    q.cpu_price =
        pcpus == 0 ? 0.0 : static_cast<double>(pcpus - free) / pcpus;
    q.congestion_price = congestion;
    q.free_pcpus = free;
    // Per-class lane prices (qos runs only): the worse of how full this
    // node's downlink lane sits right now and how long its uplink spent
    // XOFF'd on that lane this period. A node whose bulk lane is jammed but
    // whose latency lane is clear prices the latency class near 0 — that is
    // the lane the broker shops for.
    const auto& fcfg = cluster_->fabric().config();
    if (fcfg.qos_enabled) {
      for (std::uint8_t vl = 0; vl < fcfg.num_vls; ++vl) {
        double occ_frac = 0.0;
        const auto& down_ch = hca.downlink();
        const auto& dcfg = down_ch.config();
        if (dcfg.byte_occupancy()) {
          const std::uint64_t cap_bytes = dcfg.port_buffer_bytes > 0
                                              ? dcfg.port_buffer_bytes
                                              : dcfg.switch_pool_bytes;
          if (cap_bytes > 0) {
            occ_frac = static_cast<double>(down_ch.vl_backlog_bytes(vl)) /
                       static_cast<double>(cap_bytes);
          }
        } else if (dcfg.port_buffer_pkts > 0) {
          occ_frac = static_cast<double>(down_ch.vl_backlog_packets(vl)) /
                     dcfg.port_buffer_pkts;
        }
        const sim::SimDuration vp = hca.uplink().vl_paused_time(vl);
        const double paused_frac =
            static_cast<double>(vp - prev_[i].up_vl_paused[vl]) / period;
        next.up_vl_paused[vl] = vp;
        q.qos_price[vl] = std::min(1.0, std::max(occ_frac, paused_frac));
      }
    }
    prev_[i] = next;
    q.posted_at = sim.now();
    exchange_->post(q);
  }
}

void ClusterBroker::decide() {
  auto& sim = cluster_->sim();
  if (engine_->in_progress()) return;

  // Worst offender above the SLA threshold; registration order breaks ties.
  Managed* worst = nullptr;
  double worst_ratio = 1.0 + config_.sla_threshold_pct / 100.0;
  for (auto& m : services_) {
    if (m.last_migration && sim.now() - *m.last_migration < kCooldown) {
      continue;
    }
    const auto* agent = m.svc->agent();
    if (agent == nullptr || m.baseline_us <= 0.0) continue;
    const auto snap = agent->snapshot();
    if (snap.reports < kMinReports) continue;
    const double ratio = snap.mean_us / m.baseline_us;
    if (ratio > worst_ratio) {
      worst = &m;
      worst_ratio = ratio;
    }
  }
  if (worst == nullptr) return;

  const std::uint32_t src = worst->svc->server_node_id();
  // Managed services are latency-sensitive by contract: with qos on, shop
  // for the latency class's lane — the price of the lane this service's RPC
  // traffic actually rides.
  const auto& fcfg = cluster_->fabric().config();
  const int qos_class =
      fcfg.qos_enabled ? static_cast<int>(fcfg.vl_for_sl(qos::kLatencySl))
                       : -1;
  const auto score = [qos_class](const core::NodePriceQuote& q) {
    double s = core::ClusterExchange::blended(q);
    if (qos_class >= 0) s += q.qos_price[static_cast<std::size_t>(qos_class)];
    return s;
  };
  const auto* src_quote = exchange_->quote(src);
  const auto* dst_quote =
      exchange_->cheapest(1, src, 1.0, 0.25, 0.75, qos_class);
  if (src_quote == nullptr || dst_quote == nullptr) return;
  if (score(*dst_quote) + kMinPriceAdvantage > score(*src_quote)) {
    return;
  }

  RESEX_TRACE_INSTANT(sim.tracer(), "broker.migrate", "cluster",
                      {"src", static_cast<double>(src)},
                      {"dst", static_cast<double>(dst_quote->node_id)});
  worst->last_migration = sim.now();
  ++requested_;
  engine_->migrate(*worst->svc, dst_quote->node_id);
}

}  // namespace resex::cluster
