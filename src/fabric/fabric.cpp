#include "fabric/fabric.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace resex::fabric {

Fabric::Fabric(sim::Simulation& sim, FabricConfig config)
    : sim_(sim), config_(config) {
  if (config_.mtu_bytes == 0 || config_.link_bytes_per_sec <= 0.0) {
    throw std::invalid_argument("Fabric: bad config");
  }
  if (config_.ecn_kmax_pkts > 0 &&
      (config_.ecn_kmin_pkts == 0 ||
       config_.ecn_kmin_pkts > config_.ecn_kmax_pkts)) {
    throw std::invalid_argument(
        "Fabric: ECN thresholds require 1 <= kmin <= kmax");
  }
  if (config_.switch_pool_bytes > 0 && config_.pool_alpha <= 0.0) {
    throw std::invalid_argument("Fabric: pool_alpha must be > 0");
  }
  if (config_.pfc_enabled) {
    if (!config_.lossy()) {
      throw std::invalid_argument(
          "Fabric: PFC requires finite switch buffers");
    }
    if (!(config_.pfc_xon > 0.0) || config_.pfc_xon > config_.pfc_xoff ||
        config_.pfc_xoff > 1.0) {
      throw std::invalid_argument(
          "Fabric: PFC thresholds require 0 < xon <= xoff <= 1");
    }
  }
  if (config_.qos_enabled) {
    if (config_.num_vls == 0 || config_.num_vls > FabricConfig::kMaxVls) {
      throw std::invalid_argument("Fabric: qos requires 1 <= num_vls <= 4");
    }
    for (std::size_t sl = 0; sl < FabricConfig::kMaxSls; ++sl) {
      if (config_.sl2vl[sl] >= FabricConfig::kMaxVls) {
        throw std::invalid_argument("Fabric: SL->VL map entry out of range");
      }
    }
    for (std::size_t vl = 0; vl < config_.num_vls; ++vl) {
      if (config_.vl_weight[vl] == 0) {
        throw std::invalid_argument("Fabric: VL weights must be >= 1");
      }
    }
    if (config_.vl_high_mask >= (1u << config_.num_vls)) {
      throw std::invalid_argument(
          "Fabric: vl_high_mask names an unconfigured lane");
    }
  }
  if (config_.routing.vl_shift &&
      (!config_.qos_enabled || config_.num_vls < 2)) {
    throw std::invalid_argument(
        "Fabric: vl_shift requires qos with at least 2 lanes "
        "(reserve_shift_lane after the qos config applies)");
  }
  switch_hops_ = &sim_.metrics().counter("fabric.switch_hops");
  route_rehash_ = &sim_.metrics().counter("fabric.route_rehash");
  trains_ = std::make_shared<TrainSet>(*switch_hops_);
  // Snapshots read channel gauges and switch_hops: trains settle first.
  sim_.metrics().on_read([trains = std::weak_ptr<TrainSet>(trains_)] {
    if (const auto t = trains.lock()) t->settle_all();
  });
}

SwitchBufferPool* Fabric::switch_pool(std::uint32_t sw) {
  if (config_.switch_pool_bytes == 0) return nullptr;
  if (pools_.size() <= sw) pools_.resize(sw + 1);
  if (!pools_[sw]) {
    pools_[sw] = std::make_unique<SwitchBufferPool>(config_.switch_pool_bytes,
                                                    config_.pool_alpha);
    sim_.metrics().gauge_fn(
        "fabric.sw" + std::to_string(sw) + ".pool_occupied_bytes",
        [p = pools_[sw].get()] {
          return static_cast<double>(p->occupied());
        });
  }
  return pools_[sw].get();
}

std::vector<Channel*>* Fabric::switch_feeders(std::uint32_t sw) {
  if (feeders_.size() <= sw) feeders_.resize(sw + 1);
  if (!feeders_[sw]) feeders_[sw] = std::make_unique<std::vector<Channel*>>();
  return feeders_[sw].get();
}

Hca& Fabric::add_node(hv::Node& node) { return add_node(node, 0); }

Hca& Fabric::add_node(hv::Node& node, std::uint32_t switch_id) {
  if (switch_id >= switch_count_) {
    throw std::invalid_argument("Fabric::add_node: no such switch");
  }
  hcas_.push_back(std::make_unique<Hca>(
      *this, node, static_cast<std::uint32_t>(hcas_.size())));
  hca_switch_.push_back(switch_id);
  Hca& h = *hcas_.back();
  // The downlink is an egress port of `switch_id`: its admission control may
  // draw on the switch's shared pool, and its PFC pause frames target every
  // channel feeding that switch. The uplink, as one of those feeders, is
  // what a pause from this switch gates.
  h.downlink().configure_switch_port(switch_pool(switch_id),
                                     switch_feeders(switch_id));
  switch_feeders(switch_id)->push_back(&h.uplink());
  return h;
}

std::uint32_t Fabric::add_switch() {
  nexthop_.invalidate();
  return switch_count_++;
}

void Fabric::add_trunk(std::uint32_t a, std::uint32_t b,
                       double bandwidth_scale) {
  if (a >= switch_count_ || b >= switch_count_ || a == b) {
    throw std::invalid_argument("Fabric::add_trunk: bad switch pair");
  }
  if (bandwidth_scale <= 0.0) {
    throw std::invalid_argument("Fabric::add_trunk: bad bandwidth scale");
  }
  if (trunk_by_pair_.contains(pair_key(a, b))) {
    throw std::invalid_argument("Fabric::add_trunk: trunk already exists");
  }
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    auto t = std::make_unique<Trunk>();
    t->config = config_;
    t->config.link_bytes_per_sec *= bandwidth_scale;
    t->channel = std::make_unique<Channel>(
        sim_, t->config,
        "sw" + std::to_string(from) + "->sw" + std::to_string(to));
    t->channel->set_sink(
        [](void* trunk, detail::Packet&& p) {
          const auto& tr = *static_cast<Trunk*>(trunk);
          tr.fabric->hop(tr.to, std::move(p));
        },
        t.get());
    // A trunk is an egress port of `from` (pool and pause targets are
    // from's) and at the same time a feeder of `to` — the channel a pause
    // from `to`'s congested ports gates. That dual role is how PFC
    // congestion trees spread across the fabric.
    t->channel->configure_switch_port(switch_pool(from),
                                      switch_feeders(from));
    switch_feeders(to)->push_back(t->channel.get());
    if (fault_hook_ != nullptr) t->channel->set_fault_hook(fault_hook_);
    t->fabric = this;
    t->from = from;
    t->to = to;
    trunk_by_pair_.emplace(pair_key(from, to), t->channel.get());
    trunks_.push_back(std::move(t));
  }
  nexthop_.invalidate();
}

void Fabric::add_route_candidate(std::uint32_t at, std::uint32_t dst,
                                 std::uint32_t via) {
  Channel* out = trunk(at, via);
  if (out == nullptr) {
    throw std::invalid_argument(
        "Fabric::add_route_candidate: via is not trunk-adjacent");
  }
  nexthop_.add(at, dst, {via, out});
}

std::uint8_t Fabric::shifted_vl(std::uint8_t vl, std::uint32_t src_hca,
                                std::uint32_t dst_hca) const {
  // Routes that go "up" the switch order (src switch <= dst switch) keep
  // their lane; "down" routes — the ones that close a cycle on ring-shaped
  // route sets, like the striped all-reduce's wrap-around — shift one lane.
  // Each direction's channel-dependency graph is acyclic on its own lane
  // set, so PFC pause trees can no longer close a loop (DESIGN.md §11).
  if (!config_.routing.vl_shift) return vl;
  if (switch_of(src_hca) <= switch_of(dst_hca)) return vl;
  const auto top = static_cast<std::uint8_t>(config_.num_vls - 1);
  return vl >= top ? top : static_cast<std::uint8_t>(vl + 1);
}

Channel* Fabric::trunk(std::uint32_t a, std::uint32_t b) noexcept {
  const auto it = trunk_by_pair_.find(pair_key(a, b));
  return it == trunk_by_pair_.end() ? nullptr : it->second;
}

void Fabric::for_each_trunk(
    const std::function<void(std::uint32_t, std::uint32_t, Channel&)>& fn) {
  for (auto& t : trunks_) fn(t->from, t->to, *t->channel);
}

void Fabric::set_fault_hook(FaultHook* hook) noexcept {
  fault_hook_ = hook;
  for (auto& h : hcas_) {
    h->uplink().set_fault_hook(hook);
    h->downlink().set_fault_hook(hook);
  }
  for (auto& t : trunks_) t->channel->set_fault_hook(hook);
}

void Fabric::connect(QueuePair& a, QueuePair& b) {
  a.set_peer(b);
  b.set_peer(a);
}

void Fabric::route_from(const Hca& src, detail::Packet&& pkt) {
  hop(switch_of(src.id()), std::move(pkt));
}

void Fabric::finalize_routes() {
  // Pairs without an explicit route keep the historical fallback — a direct
  // trunk to the destination switch — materialized as a table entry so the
  // forwarding path never consults the trunk map.
  for (std::uint32_t at = 0; at < switch_count_; ++at) {
    for (std::uint32_t dst = 0; dst < switch_count_; ++dst) {
      if (at == dst || nexthop_.has(at, dst)) continue;
      if (Channel* direct = trunk(at, dst); direct != nullptr) {
        nexthop_.add(at, dst, {dst, direct});
      }
    }
  }
  nexthop_.compile(switch_count_);
}

std::uint32_t Fabric::pick_candidate(std::uint32_t sw,
                                     const detail::Packet& pkt,
                                     routing::NextHopTable<Channel>::Span span) {
  const auto& rcfg = config_.routing;
  if (span.count <= 1 || rcfg.mode == routing::RouteMode::kStatic) return 0;
  const QueuePair& qp = *pkt.transfer->src_qp;
  if (rcfg.mode == routing::RouteMode::kEcmp) {
    return static_cast<std::uint32_t>(
        routing::ecmp_hash(qp.num(), pkt.transfer->sl, rcfg.ecmp_seed) %
        span.count);
  }
  // Adaptive: a flow (switch, QP) stays on its chosen port — per-QP order —
  // and is re-placed on the least-loaded candidate at flow start, or
  // mid-flow when its port is pause-gated and another candidate is not
  // (PFC/ECN feedback reaches the chooser as pause state and backlog).
  // Every input is deterministic sim state, so any --jobs interleaving
  // makes identical choices.
  const std::uint8_t vl = pkt.transfer->vl;
  const auto blocked = [vl](const Channel& ch) { return ch.vl_paused(vl); };
  const std::uint64_t key = (std::uint64_t{sw} << 32) | qp.num();
  const auto it = flow_port_.find(key);
  if (it != flow_port_.end() && it->second < span.count && pkt.index != 0 &&
      !blocked(*span[it->second].port)) {
    return it->second;
  }
  // Least-loaded by egress backlog; a paused port only wins when every
  // candidate is paused. Lowest index breaks ties, so an idle fabric
  // forwards exactly like static routing.
  constexpr std::uint64_t kPausedPenalty = std::uint64_t{1} << 60;
  std::uint32_t best = 0;
  std::uint64_t best_load = ~std::uint64_t{0};
  for (std::uint32_t i = 0; i < span.count; ++i) {
    const Channel& ch = *span[i].port;
    const std::uint64_t load =
        ch.backlog_bytes() + (blocked(ch) ? kPausedPenalty : 0);
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  if (it == flow_port_.end()) {
    flow_port_.emplace(key, best);
  } else if (it->second != best) {
    it->second = best;
    route_rehash_->add();
  }
  return best;
}

void Fabric::hop(std::uint32_t sw, detail::Packet&& pkt) {
  // The destination port is determined by the QP the transfer is addressed
  // to (dst_qp is always the receiving end, including for read responses).
  Hca& dst = pkt.transfer->dst_qp->hca();
  const std::uint32_t dst_sw = switch_of(dst.id());
  switch_hops_->add();
  if (dst_sw == sw) {
    // Local delivery: the egress "port" is the destination host's downlink.
    RESEX_TRACE_INSTANT(
        sim_.tracer(), "pkt.hop", "fabric", {"switch", static_cast<double>(sw)},
        {"qp", static_cast<double>(pkt.transfer->src_qp->num())},
        {"port", static_cast<double>(dst.id())});
    dst.downlink().enqueue(std::move(pkt));
    return;
  }
  if (!nexthop_.compiled()) finalize_routes();
  const auto span = nexthop_.lookup(sw, dst_sw);
  if (span.empty()) {
    throw std::logic_error("Fabric::hop: no route from sw" +
                           std::to_string(sw) + " towards sw" +
                           std::to_string(dst_sw));
  }
  const auto& next = span[pick_candidate(sw, pkt, span)];
  RESEX_TRACE_INSTANT(
      sim_.tracer(), "pkt.hop", "fabric", {"switch", static_cast<double>(sw)},
      {"qp", static_cast<double>(pkt.transfer->src_qp->num())},
      {"port", static_cast<double>(next.via)});
  next.port->enqueue(std::move(pkt));
}

}  // namespace resex::fabric
