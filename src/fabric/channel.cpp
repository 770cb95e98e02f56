#include "fabric/channel.hpp"

#include <algorithm>
#include <stdexcept>

#include "fabric/queue_pair.hpp"

namespace resex::fabric {

Channel::Channel(sim::Simulation& sim, const FabricConfig& config,
                 std::string name)
    : sim_(sim),
      config_(config),
      name_(std::move(name)),
      lanes_(config.qos_enabled
                 ? std::clamp<std::uint8_t>(config.num_vls, 1, qos::kMaxVls)
                 : 1) {
  if (lanes_ > 1) {
    qos::VlArbiterConfig acfg;
    acfg.num_vls = lanes_;
    acfg.high_mask = config_.vl_high_mask;
    acfg.hi_limit = config_.vl_hi_limit;
    for (std::size_t vl = 0; vl < qos::kMaxVls; ++vl) {
      acfg.weight[vl] = config_.vl_weight[vl];
    }
    arbiter_ = qos::VlArbiter(acfg);
  }
  // Pull-style gauges: evaluated only when a driver snapshots the registry,
  // so the packet path pays nothing for them. The channel outlives any
  // snapshot taken while its scenario runs.
  const std::string prefix = "fabric." + name_;
  auto& metrics = sim_.metrics();
  metrics.gauge_fn(prefix + ".packets_sent", [this] {
    return static_cast<double>(packets_sent_);
  });
  metrics.gauge_fn(prefix + ".bytes_sent",
                   [this] { return static_cast<double>(bytes_sent_); });
  metrics.gauge_fn(prefix + ".busy_ns",
                   [this] { return static_cast<double>(busy_time_); });
  metrics.gauge_fn(prefix + ".backlog_packets", [this] {
    return static_cast<double>(backlog_packets());
  });
  metrics.gauge_fn(prefix + ".packets_dropped", [this] {
    return static_cast<double>(packets_dropped_);
  });
  metrics.gauge_fn(prefix + ".packets_corrupted", [this] {
    return static_cast<double>(packets_corrupted_);
  });
}

void Channel::configure_switch_port(SwitchBufferPool* pool,
                                    const std::vector<Channel*>* upstreams) {
  switch_port_ = true;
  pool_ = pool;
  upstreams_ = upstreams;
  if (!config_.congestion_enabled()) return;
  byte_mode_ = config_.byte_occupancy();
  pfc_on_ = config_.pfc_enabled;
  // In byte mode the packet-denominated ECN thresholds scale by the MTU, so
  // --ecn-kmin/--ecn-kmax keep their meaning under either accounting.
  const std::uint64_t unit = byte_mode_ ? config_.mtu_bytes : 1;
  ecn_configured_ = config_.ecn_kmax_pkts > 0;
  if (ecn_configured_) {
    // One marker per lane: each lane ramps against its own occupancy with
    // the same configured thresholds, so marking on a hot bulk lane never
    // taxes an idle latency lane.
    for (std::size_t vl = 0; vl < lanes_; ++vl) {
      vl_ecn_[vl] = EcnMarker(config_.ecn_kmin_pkts * unit,
                              config_.ecn_kmax_pkts * unit);
    }
  }
  // Fabric-wide aggregates plus per-port gauges, registered only when
  // congestion is configured so default runs export an unchanged metric set.
  auto& metrics = sim_.metrics();
  buf_drops_total_ = &metrics.counter("fabric.buf_drops");
  ecn_marks_total_ = &metrics.counter("fabric.ecn_marks");
  occupancy_hist_ = &metrics.histogram(byte_mode_
                                           ? "fabric.port_occupancy_bytes"
                                           : "fabric.port_occupancy_pkts");
  if (lanes_ > 1) {
    // Per-lane occupancy seen by each arrival, fabric-wide: the isolation
    // signal (latency-lane occupancy staying flat under a bulk storm).
    vl_occupancy_hist_ = &metrics.histogram("fabric.vl_occupancy");
  }
  const std::string prefix = "fabric." + name_;
  metrics.gauge_fn(prefix + ".buf_drops",
                   [this] { return static_cast<double>(buf_drops_); });
  metrics.gauge_fn(prefix + ".ecn_marks",
                   [this] { return static_cast<double>(ecn_marks_); });
  if (pfc_on_) {
    pauses_total_ = &metrics.counter("fabric.pfc_pauses");
    pause_dur_hist_ = &metrics.histogram("fabric.pause_duration_ns");
    metrics.gauge_fn(prefix + ".pauses_sent",
                     [this] { return static_cast<double>(pauses_sent_); });
    metrics.gauge_fn(prefix + ".paused_ns", [this] {
      return static_cast<double>(paused_time());
    });
  }
}

std::uint64_t Channel::occupancy_units() const noexcept {
  return byte_mode_ ? backlog_bytes_ : backlog_packets();
}

std::uint64_t Channel::vl_occupancy_units(std::uint8_t vl) const noexcept {
  return byte_mode_ ? vl_backlog_bytes_[vl] : vl_backlog_pkts_[vl];
}

std::uint64_t Channel::vl_capacity_units() {
  std::uint64_t cap = 0;
  if (pool_ != nullptr) {
    // The shared pool's dynamic threshold replaces any fixed per-port cap.
    cap = pool_->threshold();
  } else if (byte_mode_) {
    cap = config_.port_buffer_bytes;
  } else {
    cap = config_.port_buffer_pkts;
  }
  if (fault_hook_ != nullptr) {
    if (const std::uint32_t squeeze = fault_hook_->buffer_limit(*this);
        squeeze > 0) {
      cap = byte_mode_ ? std::uint64_t{squeeze} * config_.mtu_bytes : squeeze;
    }
  }
  // The pool threshold is already per queue; a fixed cap is partitioned.
  if (pool_ == nullptr && cap > 0) {
    cap = std::max<std::uint64_t>(cap / lanes_, 1);
  }
  return cap;
}

bool Channel::paused() const noexcept {
  return std::any_of(vl_pause_refs_.begin(), vl_pause_refs_.end(),
                     [](std::uint32_t refs) { return refs > 0; });
}

sim::SimDuration Channel::vl_paused_time(std::uint8_t vl) const noexcept {
  if (vl >= qos::kMaxVls) return 0;
  sim::SimDuration total = vl_paused_time_[vl];
  if (vl_pause_refs_[vl] > 0) total += sim_.now() - vl_paused_since_[vl];
  return total;
}

sim::SimDuration Channel::paused_time() const noexcept {
  sim::SimDuration total = 0;
  for (std::uint8_t vl = 0; vl < qos::kMaxVls; ++vl) {
    total += vl_paused_time(vl);
  }
  return total;
}

void Channel::pause_vls(std::uint8_t mask) {
  for (std::uint8_t vl = 0; vl < qos::kMaxVls; ++vl) {
    if ((mask & (1u << vl)) == 0) continue;
    if (vl_pause_refs_[vl]++ == 0) vl_paused_since_[vl] = sim_.now();
  }
}

void Channel::resume_vls(std::uint8_t mask) {
  bool freed = false;
  for (std::uint8_t vl = 0; vl < qos::kMaxVls; ++vl) {
    if ((mask & (1u << vl)) == 0) continue;
    if (vl_pause_refs_[vl] == 0) continue;
    if (--vl_pause_refs_[vl] > 0) continue;
    const sim::SimDuration dur = sim_.now() - vl_paused_since_[vl];
    vl_paused_time_[vl] += dur;
    // Lazily resolved: host uplinks are pause targets without ever having
    // been configured as switch ports, and only PFC runs reach this path.
    if (pause_dur_hist_ == nullptr) {
      pause_dur_hist_ = &sim_.metrics().histogram("fabric.pause_duration_ns");
    }
    pause_dur_hist_->observe(static_cast<std::uint64_t>(dur));
    if (sim_.tracer().enabled()) {
      sim_.tracer().complete("fabric.paused", "congestion",
                             vl_paused_since_[vl], dur,
                             {"vl", static_cast<double>(vl)});
    }
    freed = true;
  }
  // One wakeup after the whole bitmap is applied: a resume frame covering
  // several lanes must not arbitrate between partially-updated pause state.
  if (freed && !busy_) try_start();
}

void Channel::set_pause_upstream(std::uint8_t vl, bool pause) {
  vl_xoff_[vl] = pause;
  if (pause) {
    ++pauses_sent_;
    if (pauses_total_ != nullptr) pauses_total_->add();
  }
  if (sim_.tracer().enabled()) {
    sim_.tracer().instant(
        pause ? "fabric.pause" : "fabric.resume", "congestion",
        {"occ", static_cast<double>(vl_occupancy_units(vl))},
        {"vl", static_cast<double>(vl)});
  }
  if (upstreams_ == nullptr) return;
  // The pause frame travels one hop upstream carrying the class bitmap:
  // every channel feeding this port's switch gates (or resumes) this lane
  // only after the wire delay, in feeder order, as one event.
  const auto mask = static_cast<std::uint8_t>(1u << vl);
  sim_.schedule_in(config_.propagation_delay, [this, mask, pause] {
    for (Channel* up : *upstreams_) {
      if (pause) {
        up->pause_vls(mask);
      } else {
        up->resume_vls(mask);
      }
    }
  });
}

void Channel::check_xoff(std::uint8_t vl) {
  const std::uint64_t cap = vl_capacity_units();
  if (cap == 0) return;
  auto xoff = static_cast<std::uint64_t>(
      config_.pfc_xoff * static_cast<double>(cap));
  if (xoff == 0) xoff = 1;
  if (vl_occupancy_units(vl) >= xoff) set_pause_upstream(vl, true);
}

void Channel::check_xon(std::uint8_t vl) {
  const std::uint64_t cap = vl_capacity_units();
  const auto xon = static_cast<std::uint64_t>(
      config_.pfc_xon * static_cast<double>(cap));
  if (vl_occupancy_units(vl) <= xon) set_pause_upstream(vl, false);
}

Channel::Flow& Channel::flow_for(QpNum qp, std::uint8_t vl) {
  const std::size_t key = std::size_t{qp} * qos::kMaxVls + vl;
  if (key >= flow_index_.size()) flow_index_.resize(key + 1, 0);
  if (const std::uint32_t pos = flow_index_[key]; pos != 0) {
    return flows_[pos - 1];
  }
  Flow nf;
  nf.qp = qp;
  nf.vl = vl;
  // A QP appearing on a new lane keeps its configured arbitration weight and
  // rate-limit parameters (with a fresh bucket): weight and rate are per-QP
  // knobs, the lane is a per-packet property.
  for (const auto& f : flows_) {
    if (f.qp != qp) continue;
    nf.weight = f.weight;
    nf.grants_left = f.weight;
    nf.rate_bytes_per_sec = f.rate_bytes_per_sec;
    nf.bucket_cap = f.bucket_cap;
    nf.tokens = f.bucket_cap;
    nf.tokens_updated = sim_.now();
    break;
  }
  flows_.push_back(nf);
  flow_index_[key] = static_cast<std::uint32_t>(flows_.size());
  return flows_.back();
}

void Channel::set_flow_weight(QpNum qp, std::uint32_t weight) {
  const std::uint32_t w = std::max<std::uint32_t>(weight, 1);
  bool found = false;
  for (auto& f : flows_) {
    if (f.qp != qp) continue;
    f.weight = w;
    f.grants_left = w;
    found = true;
  }
  if (found) return;
  Flow& f = flow_for(qp);
  f.weight = w;
  f.grants_left = w;
}

std::uint32_t Channel::flow_weight(QpNum qp) const {
  for (const auto& f : flows_) {
    if (f.qp == qp) return f.weight;
  }
  return 1;
}

void Channel::apply_rate_limit(Flow& f, double bytes_per_sec,
                               std::uint32_t burst_bytes) {
  const bool was_limited = f.rate_bytes_per_sec > 0.0;
  if (was_limited) {
    // Settle the bucket at the old rate before switching: a controller that
    // adjusts the rate every few tens of microseconds (DCQCN recovery) must
    // not gift the flow a full burst of tokens per update.
    f.tokens = std::min(f.tokens + f.rate_bytes_per_sec *
                                       static_cast<double>(sim_.now() -
                                                           f.tokens_updated) /
                                       1e9,
                        f.bucket_cap);
  }
  f.rate_bytes_per_sec = bytes_per_sec;
  f.bucket_cap = static_cast<double>(config_.mtu_bytes) + burst_bytes;
  if (was_limited) {
    f.tokens = std::min(f.tokens, f.bucket_cap);
  } else {
    f.tokens = f.bucket_cap;  // newly limited flows start with a full burst
  }
  f.tokens_updated = sim_.now();
}

void Channel::set_flow_rate_limit(QpNum qp, double bytes_per_sec,
                                  std::uint32_t burst_bytes) {
  if (bytes_per_sec < 0.0) {
    throw std::invalid_argument("Channel: negative rate limit");
  }
  // The limit is per-QP: every lane the QP rides gets the same parameters
  // (each lane keeps its own bucket), matching how DCQCN throttles a QP.
  bool found = false;
  for (auto& f : flows_) {
    if (f.qp != qp) continue;
    apply_rate_limit(f, bytes_per_sec, burst_bytes);
    found = true;
  }
  if (!found) apply_rate_limit(flow_for(qp), bytes_per_sec, burst_bytes);
  if (!busy_) try_start();
}

double Channel::flow_rate_limit(QpNum qp) const {
  for (const auto& f : flows_) {
    if (f.qp == qp) return f.rate_bytes_per_sec;
  }
  return 0.0;
}

bool Channel::may_send(Flow& f, std::uint32_t bytes) {
  if (f.rate_bytes_per_sec <= 0.0) return true;
  const sim::SimTime now = sim_.now();
  f.tokens = std::min(
      f.bucket_cap,
      f.tokens + f.rate_bytes_per_sec *
                     static_cast<double>(now - f.tokens_updated) / 1e9);
  f.tokens_updated = now;
  return f.tokens >= static_cast<double>(bytes);
}

sim::SimTime Channel::eligible_at(const Flow& f) const {
  const double needed =
      static_cast<double>(f.packets.front().bytes) - f.tokens;
  if (needed <= 0.0) return sim_.now();
  const double wait_ns = needed / f.rate_bytes_per_sec * 1e9;
  return sim_.now() + static_cast<sim::SimDuration>(wait_ns) + 1;
}

void Channel::enqueue(detail::Packet pkt) {
  if (!sink_) {
    throw std::logic_error("Channel '" + name_ + "': no sink connected");
  }
  // The HCA resolved SL->VL at transfer start; clamp defensively so a stale
  // transfer can never index past the configured lanes.
  const std::uint8_t vl = pkt.transfer->vl < lanes_ ? pkt.transfer->vl : 0;
  if (switch_port_ && (config_.congestion_enabled() || fault_hook_ != nullptr)) {
    // Finite egress buffer, admitted per lane: this packet competes for
    // buffer against its own class only. The packet currently serializing
    // occupies the wire, not the buffer, so capacity is checked against the
    // backlog only. A fault-injected buffer squeeze (shared-buffer pressure
    // from outside the simulated world) overrides the configured capacity.
    const std::uint64_t occupancy = vl_occupancy_units(vl);
    const std::uint64_t capacity = vl_capacity_units();
    // Every arrival observes the occupancy it found, admitted or not: a
    // histogram over accepted packets only is biased low under loss. The
    // port histogram records the total backlog, the lane histogram what
    // this arrival's class saw.
    if (occupancy_hist_ != nullptr) {
      occupancy_hist_->observe(occupancy_units());
    }
    if (vl_occupancy_hist_ != nullptr) {
      vl_occupancy_hist_->observe(occupancy);
    }
    if (capacity > 0 && occupancy >= capacity) {
      ++buf_drops_;
      ++packets_dropped_;  // visible in the per-channel drop gauge too
      if (buf_drops_total_ == nullptr) {
        // A squeeze fault can drop on a fabric with no congestion configured
        // (the gauges were never registered); resolve the aggregate lazily
        // so those drops still surface in metrics snapshots.
        buf_drops_total_ = &sim_.metrics().counter("fabric.buf_drops");
      }
      buf_drops_total_->add();
      if (sim_.tracer().enabled()) {
        sim_.tracer().instant(
            "fabric.buf_drop", "congestion",
            {"qp", static_cast<double>(pkt.transfer->src_qp->num())},
            {"occ", static_cast<double>(occupancy)},
            {"vl", static_cast<double>(vl)});
      }
      return;  // tail-drop: the RC machinery recovers via NAK/RTO
    }
    // Marking is gated on a *configured* marker: a squeeze fault on a
    // non-congestion run must drop, never mark — there is no controller to
    // react and the default-constructed marker has no thresholds.
    if (ecn_configured_ && !pkt.ecn && vl_ecn_[vl].on_enqueue(occupancy)) {
      pkt.ecn = true;
      ++ecn_marks_;
      if (ecn_marks_total_ != nullptr) ecn_marks_total_->add();
      if (sim_.tracer().enabled()) {
        sim_.tracer().instant(
            "fabric.ecn_mark", "congestion",
            {"qp", static_cast<double>(pkt.transfer->src_qp->num())},
            {"occ", static_cast<double>(occupancy)},
            {"vl", static_cast<double>(vl)});
      }
    }
  }
  if (sim_.tracer().enabled()) {
    sim_.tracer().instant(
        "pkt.enqueue", "fabric",
        {"qp", static_cast<double>(pkt.transfer->src_qp->num())},
        {"bytes", static_cast<double>(pkt.bytes)});
    sim_.tracer().counter(name_.c_str(), "backlog",
                          static_cast<double>(backlog_packets() + 1));
  }
  backlog_bytes_ += pkt.bytes;
  vl_backlog_bytes_[vl] += pkt.bytes;
  ++vl_backlog_pkts_[vl];
  if (pool_ != nullptr) pool_->acquire(pkt.bytes);
  flow_for(pkt.transfer->src_qp->num(), vl).packets.push_back(std::move(pkt));
  ++backlog_pkts_;
  // Per-lane XOFF on the post-admission occupancy (this packet counts).
  if (pfc_on_ && !vl_xoff_[vl]) check_xoff(vl);
  // A paused lane leaves the others free, so try_start applies the gate.
  if (!busy_) try_start();
}

void Channel::arm_rate_timer() {
  sim::SimTime soonest = ~sim::SimTime{0};
  for (const auto& f : flows_) {
    if (!f.packets.empty() && f.rate_bytes_per_sec > 0.0) {
      soonest = std::min(soonest, eligible_at(f));
    }
  }
  if (soonest == ~sim::SimTime{0}) return;
  rate_timer_.cancel();
  rate_timer_ = sim_.schedule_at(soonest, [this] {
    if (!busy_) try_start();
  });
}

void Channel::launch(Flow& f, std::size_t pos) {
  detail::Packet pkt = std::move(f.packets.front());
  f.packets.pop_front();
  --backlog_pkts_;
  backlog_bytes_ -= std::min<std::uint64_t>(backlog_bytes_, pkt.bytes);
  auto& vbytes = vl_backlog_bytes_[f.vl];
  vbytes -= std::min<std::uint64_t>(vbytes, pkt.bytes);
  --vl_backlog_pkts_[f.vl];
  if (pool_ != nullptr) pool_->release(pkt.bytes);
  // The departure may have drained this lane below XON: resume upstreams.
  if (vl_xoff_[f.vl]) check_xon(f.vl);
  if (f.rate_bytes_per_sec > 0.0) {
    f.tokens -= static_cast<double>(pkt.bytes);
  }
  if (f.grants_left > 1 && !f.packets.empty()) {
    --f.grants_left;
    vl_cursor_[f.vl] = pos;  // keep the grant on this flow
  } else {
    f.grants_left = f.weight;
    vl_cursor_[f.vl] = pos + 1;
  }

  // Fault injection happens at the instant the packet wins arbitration:
  // a dropped packet still consumes its serialization time (the sender's
  // transmitter does not know the switch will eat it), it just never
  // reaches the sink; a corrupted one is delivered flagged and discarded
  // by the receiving HCA.
  PacketFate fate = PacketFate::kDeliver;
  if (fault_hook_ != nullptr) {
    fate = fault_hook_->on_transmit(*this, pkt);
    if (fate == PacketFate::kDrop) {
      ++packets_dropped_;
      if (sim_.tracer().enabled()) {
        sim_.tracer().instant("pkt.drop", "fault",
                              {"qp", static_cast<double>(f.qp)},
                              {"psn", static_cast<double>(pkt.psn)});
      }
    } else if (fate == PacketFate::kCorrupt) {
      pkt.corrupted = true;
      ++packets_corrupted_;
      if (sim_.tracer().enabled()) {
        sim_.tracer().instant("pkt.corrupt", "fault",
                              {"qp", static_cast<double>(f.qp)},
                              {"psn", static_cast<double>(pkt.psn)});
      }
    }
  }

  busy_ = true;
  const sim::SimDuration tx = config_.serialization_time(pkt.bytes);
  busy_time_ += tx;
  ++packets_sent_;
  bytes_sent_ += pkt.bytes;
  ++vl_grants_[f.vl];
  if (lanes_ > 1 && sim_.tracer().enabled()) {
    sim_.tracer().instant("qos.arb_grant", "qos",
                          {"vl", static_cast<double>(f.vl)},
                          {"qp", static_cast<double>(f.qp)});
  }
  if (sim_.tracer().enabled()) {
    sim_.tracer().instant("pkt.tx", "fabric",
                          {"qp", static_cast<double>(f.qp)},
                          {"bytes", static_cast<double>(pkt.bytes)});
    sim_.tracer().counter(name_.c_str(), "backlog",
                          static_cast<double>(backlog_packets()));
  }
  // The packet waits in the in-flight FIFO, not in the events: they carry
  // only `this`.
  tx_delivers_ = fate != PacketFate::kDrop;
  if (tx_delivers_) in_flight_.push_back(std::move(pkt));
  sim_.schedule_in(tx, [this] { on_tx_done(); });
}

void Channel::on_tx_done() {
  busy_ = false;
  if (tx_delivers_) {
    sim_.schedule_in(config_.propagation_delay, [this] {
      detail::Packet pkt = std::move(in_flight_.front());
      in_flight_.pop_front();
      sink_(std::move(pkt));
    });
  }
  try_start();
}

void Channel::try_start() {
  if (busy_) return;
  std::uint8_t vl = 0;
  bool rate_blocked = false;
  // A single lane skips the eligibility pass: refilling token buckets at
  // extra instants would change their floating-point rounding.
  if (lanes_ > 1) {
    // Lane eligibility: VL v competes when it is not paused and some flow
    // on it holds a head packet with the tokens to send it. This is the
    // per-priority escape from HoL blocking: a pause frame against the bulk
    // lane leaves every other lane in the mask.
    std::uint8_t eligible = 0;
    for (auto& f : flows_) {
      if (f.packets.empty()) continue;
      if (vl_pause_refs_[f.vl] > 0) continue;
      if (!may_send(f, f.packets.front().bytes)) {
        rate_blocked = true;
        continue;
      }
      eligible |= static_cast<std::uint8_t>(1u << f.vl);
    }
    // Two-table arbitration picks the lane.
    vl = arbiter_.pick(eligible);
    if (vl >= qos::kMaxVls) {
      if (rate_blocked) arm_rate_timer();
      return;
    }
  } else if (vl_pause_refs_[0] > 0) {
    // A paused single lane holds the whole port: the head-of-line blocking
    // PFC is known for, and what more lanes remove.
    return;
  }
  // Weighted round-robin with per-flow token buckets within the lane, from
  // the lane's own cursor (heavy lanes never skew fairness inside quiet
  // ones): grant the first flow that has a packet and the tokens to send
  // it. A flow keeps the grant for up to `weight` consecutive packets — the
  // priority control of newer IB HCAs; the token bucket is their
  // bandwidth-limit control.
  const std::size_t n = flows_.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t pos = (vl_cursor_[vl] + probe) % n;
    Flow& f = flows_[pos];
    if (f.vl != vl || f.packets.empty()) continue;
    if (!may_send(f, f.packets.front().bytes)) {
      rate_blocked = true;
      continue;
    }
    launch(f, pos);
    return;
  }
  // Everything pending is rate-limited below its bucket: wake up when the
  // earliest bucket refills.
  if (rate_blocked) arm_rate_timer();
}

}  // namespace resex::fabric
