#include "fabric/channel.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>

#include "fabric/queue_pair.hpp"

namespace resex::fabric {

namespace detail {

/// One open packet train (DESIGN.md §5): a run of one count-only transfer,
/// alone on a host uplink `up`, crossing one switch into the idle downlink
/// `down`. From packet `first` (launched when the train opened, at
/// `start`) to `last`, every packet is a full MTU but the last, so:
///   uplink tx-complete of p   C(p) = start + (p - first + 1) * mtu_time
///   uplink delivery of p      A(p) = C(p) + propagation_delay
///                             (the downlink launches p inside it)
///   downlink tx-complete of p A(p) + mtu_time
/// for first <= p < last. Those events are virtual: settle_to() applies the
/// ones before a cutoff in closed form. The uplink tx-complete of `last`
/// is the train's one real event (`end`): it ends the train, and every
/// later event of the transfer runs in packet mode.
///
/// Same-instant order. A virtual event's key lies in the gap of drawn seqs
/// its poster's draw fell in: the seq counter when its poster ran. For a
/// poster that ran at an instant no real event shares, that is the counter
/// at the first later dispatch in the simulation's dispatch log; otherwise
/// the poster's own draw decides which of the instant's dispatches it
/// preceded. Within the train, the downlink tx-complete of p - 1 and the
/// uplink delivery of p share A(p); the former was drawn a full MTU time
/// minus one propagation delay earlier, so it runs first. Opening refuses
/// a train whose event times could meet another open train's (the same
/// instants modulo mtu_time), so no two trains' virtual events ever need
/// ordering against each other.
struct Train final : sim::Rekey {
  enum Kind : std::uint8_t { kUpTx, kUpDeliver, kDownTx };

  Channel* up = nullptr;
  Channel* down = nullptr;
  TrainSet* set = nullptr;
  TransferRef transfer;
  QpNum qp = 0;
  std::size_t up_pos = 0;  // the flow's index in up->flows_
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  std::uint64_t psn = 0;
  std::uint32_t mtu = 0;
  std::uint32_t last_bytes = 0;
  sim::SimTime start = 0;
  sim::SimDuration mtu_time = 0;
  sim::SimDuration last_time = 0;
  std::array<sim::SimTime, 3> phases{};  // event instants modulo mtu_time
  std::uint64_t open_counter = 0;  // seq counter at the opening launch
  sim::EventHandle end;            // uplink tx-complete of `last`
  std::uint64_t end_key = 0;
  bool end_exact = false;
  // Virtual events applied so far, counted from `first`.
  std::uint32_t up_txs = 0;
  std::uint32_t deliveries = 0;  // = downlink launches
  std::uint32_t down_txs = 0;
  Packet last_pkt;  // held from the launch of `last` until the train ends

  [[nodiscard]] sim::Simulation& sim() const { return up->sim_; }

  [[nodiscard]] sim::SimTime time(Kind k, std::uint32_t p) const {
    const sim::SimTime c = start + sim::SimTime{p - first + 1} * mtu_time;
    switch (k) {
      case kUpTx:
        return c;
      case kUpDeliver:
        return c + FabricConfig::propagation_delay;
      case kDownTx:
        break;
    }
    return c + FabricConfig::propagation_delay + mtu_time;
  }
  [[nodiscard]] sim::SimTime end_time() const {
    return start + sim::SimTime{last - first} * mtu_time + last_time;
  }

  /// The seq counter when virtual event (k, p) was posted.
  [[nodiscard]] std::uint64_t drawn(Kind k, std::uint32_t p) const {
    switch (k) {
      case kUpTx:
        return p == first ? open_counter : seen(kUpTx, p - 1);
      case kUpDeliver:
        return seen(kUpTx, p);
      case kDownTx:
        break;
    }
    return seen(kUpDeliver, p);
  }

  /// The seq counter while virtual event (k, p) ran.
  [[nodiscard]] std::uint64_t seen(Kind k, std::uint32_t p) const {
    const sim::SimTime t = time(k, p);
    const sim::Simulation& s = sim();
    return s.counter_after(t, s.logged_at(t) ? drawn(k, p) : 0);
  }

  /// Events (k, first..last-1) before the cutoff (now, key).
  [[nodiscard]] std::uint32_t done(Kind k, sim::SimTime now,
                                   std::uint64_t key) const {
    const sim::SimTime t0 = time(k, first);
    const std::uint32_t n_max = last - first;
    std::uint64_t n = now > t0 ? (now - t0 - 1) / mtu_time + 1 : 0;
    if (n >= n_max) return n_max;
    // A virtual event at the cutoff instant ran before the cutoff event iff
    // its poster drew before that event's key.
    if (t0 + n * mtu_time == now && drawn(k, first + n) <= key) ++n;
    return static_cast<std::uint32_t>(n);
  }

  void settle_to(sim::SimTime now, std::uint64_t key) {
    const std::uint32_t txs = done(kUpTx, now, key);
    const std::uint32_t dl = done(kUpDeliver, now, key);
    if (txs > up_txs) apply_launches(txs);
    if (dl > deliveries) apply_deliveries(dl);
    down_txs = done(kDownTx, now, key);
    if (deliveries > 0) down->busy_ = deliveries > down_txs;
  }

  /// Uplink tx-completes up to `txs`: each launched the next packet.
  void apply_launches(std::uint32_t txs) {
    Channel& u = *up;
    const std::uint32_t n = txs - up_txs;
    const bool with_last = first + txs == last;
    const std::uint32_t full = with_last ? n - 1 : n;
    const std::uint64_t bytes =
        std::uint64_t{full} * mtu + (with_last ? last_bytes : 0);
    auto& entries = u.flows_[up_pos].packets;
    if (with_last) {
      last_pkt = entries.pop_front().next;
      last_pkt.index = last;
      last_pkt.bytes = last_bytes;
    } else {
      Channel::Queued& head = entries.front();
      head.count -= n;
      head.next.index += n;
      head.next.bytes = head.next.index == last ? last_bytes : mtu;
    }
    u.backlog_pkts_ -= n;
    u.backlog_bytes_ -= bytes;
    u.vl_backlog_pkts_[0] -= n;
    u.vl_backlog_bytes_[0] -= bytes;
    u.packets_sent_ += n;
    u.bytes_sent_ += bytes;
    u.busy_time_ += full * mtu_time + (with_last ? last_time : 0);
    u.vl_grants_[0] += n;
    u.tx_end_ = with_last ? end_time() : time(kUpTx, first + txs);
    up_txs = txs;
  }

  /// Uplink deliveries up to `dl`: each hopped the switch, and the idle
  /// downlink launched the packet and counted it into its transfer.
  void apply_deliveries(std::uint32_t dl) {
    Channel& d = *down;
    const std::uint32_t n = dl - deliveries;
    set->switch_hops_->add(n);
    if (deliveries == 0) {
      // The first arrival creates the flow, as enqueue() would.
      (void)d.flow_for(qp);
      d.vl_cursor_[0] = d.flow_index_[std::size_t{qp} * qos::kMaxVls];
    }
    d.packets_sent_ += n;
    d.bytes_sent_ += std::uint64_t{n} * mtu;
    d.busy_time_ += n * mtu_time;
    d.vl_grants_[0] += n;
    d.tx_end_ = time(kDownTx, first + dl - 1);
    transfer->delivered_packets += n;
    deliveries = dl;
  }

  /// Settle to now, then give the channels the in-flight packets and the
  /// pending events packet mode would hold, each under the key it was
  /// posted with, and close. `closing`: called from `end` itself.
  void finish(bool closing) {
    sim::Simulation& s = sim();
    settle_to(s.now(), s.order_key());
    Channel& u = *up;
    Channel& d = *down;
    const auto post = [&s](sim::SimTime t, std::uint64_t drawn_at,
                           sim::Callback fn) {
      s.schedule_keyed(t, s.explicit_key(t, drawn_at), std::move(fn));
    };
    // Downlink first: its tx-complete of p runs before the uplink delivery
    // of p + 1 at the same instant.
    if (deliveries > down_txs) {
      const std::uint32_t m = first + down_txs;
      d.busy_ = true;
      d.tx_delivers_ = false;
      post(time(kDownTx, m), drawn(kDownTx, m), [&d] { d.on_tx_done(); });
    }
    for (std::uint32_t p = first + deliveries; p < first + up_txs; ++p) {
      u.in_flight_.push_back(Packet{transfer, p, mtu, psn, false, false});
      post(time(kUpDeliver, p), drawn(kUpDeliver, p), [&u] { u.deliver(); });
    }
    const std::uint32_t w = first + up_txs;  // on the uplink's wire
    if (w < last) {
      u.in_flight_.push_back(Packet{transfer, w, mtu, psn, false, false});
      post(time(kUpTx, w), drawn(kUpTx, w), [&u] { u.on_tx_done(); });
      end.cancel();
    } else {
      u.in_flight_.push_back(std::move(last_pkt));
      if (!closing) {
        const std::uint64_t key = end_exact ? end_key : exact_key(end_time());
        end.cancel();
        s.schedule_keyed(end_time(), key, [&u] { u.on_tx_done(); });
      }
    }
    u.tx_delivers_ = true;
    u.train_ = nullptr;
    d.train_ = nullptr;
    set->close(*this);
  }

  std::uint64_t exact_key(sim::SimTime t) override {
    end_key = sim().explicit_key(t, drawn(kUpTx, last));
    end_exact = true;
    return end_key;
  }
};

}  // namespace detail

TrainSet::TrainSet(obs::Counter& switch_hops) : switch_hops_(&switch_hops) {}

TrainSet::~TrainSet() = default;

detail::Train& TrainSet::acquire() {
  for (auto& t : pool_) {
    if (t->up == nullptr) return *t;
  }
  pool_.push_back(std::make_unique<detail::Train>());
  return *pool_.back();
}

void TrainSet::close(detail::Train& t) {
  std::erase(open_, &t);
  sim::SimTime keep_from = ~sim::SimTime{0};
  for (const detail::Train* o : open_) keep_from = std::min(keep_from, o->start);
  sim::Simulation& s = t.sim();
  t.up = nullptr;
  t.down = nullptr;
  t.transfer = {};
  t.last_pkt = {};
  t.end = {};
  s.release_order_log(keep_from);
}

void TrainSet::settle_all() {
  for (detail::Train* t : open_) {
    t->settle_to(t->sim().now(), t->sim().order_key());
  }
}

void Channel::settle_train() {
  train_->settle_to(sim_.now(), sim_.order_key());
}

void Channel::finish_train() { train_->finish(false); }

bool Channel::try_open_train(std::size_t pos, sim::SimTime prev_end) {
  const Flow& f = flows_[pos];
  // The run entry already points past the launched packet.
  const detail::Packet& next = f.packets.front().next;
  const detail::Transfer& t = *next.transfer;
  // The uplink: one lane, no bucket, hook, pause or tracer, and the run of
  // a count-only transfer the only thing queued but its own followers.
  if (f.packets.front().psn_step || lanes_ != 1 ||
      fault_hook_ != nullptr || limited_flows_ != 0 ||
      vl_pause_refs_[0] != 0 || sim_.tracer().enabled() ||
      in_flight_.size() > 1 ||
      (!in_flight_.empty() && in_flight_.front().transfer->src_qp != t.src_qp)) {
    return false;
  }
  for (const Flow& g : flows_) {
    if (&g != &f && !g.packets.empty()) return false;
  }
  // The downlink one hop away: idle but for its own tail, no congestion
  // control, no train of its own.
  Channel* down = route_(route_ctx_, t);
  if (down == nullptr || down->train_ != nullptr || down->lanes_ != 1 ||
      down->fault_hook_ != nullptr || down->limited_flows_ != 0 ||
      down->vl_pause_refs_[0] != 0 || down->config_.congestion_enabled() ||
      down->backlog_pkts_ != 0) {
    return false;
  }
  constexpr sim::SimDuration kProp = FabricConfig::propagation_delay;
  const sim::SimDuration mtu_time =
      config_.serialization_time(config_.mtu_bytes);
  const std::uint32_t last = t.total_packets - 1;
  const std::uint32_t last_bytes = t.packet_bytes(last, config_.mtu_bytes);
  const sim::SimDuration last_time = config_.serialization_time(last_bytes);
  // An MTU outlasts a propagation delay, so the downlink's tx-complete of p
  // and the uplink delivery of p + 1 always tie in that order; the last
  // packet's tx-complete falls on no other train instant.
  if (mtu_time <= kProp || last_time == 0 || last_time == kProp ||
      down->config_.serialization_time(config_.mtu_bytes) != mtu_time) {
    return false;
  }
  // Predecessors stay real: the flow's packet still in flight up here, and
  // the downlink's current packet. Both must have left the downlink's wire
  // before the first train packet reaches it.
  const sim::SimTime now = sim_.now();
  const sim::SimTime arrive = now + mtu_time + kProp;
  sim::SimTime down_free = down->busy_ ? down->tx_end_ : 0;
  if (!in_flight_.empty()) {
    const sim::SimTime x_launch = std::max(prev_end + kProp, down_free);
    down_free =
        x_launch + down->config_.serialization_time(in_flight_.front().bytes);
    if (down_free == arrive && x_launch >= now + mtu_time) return false;
  }
  if (down_free > arrive) return false;
  const std::array<sim::SimTime, 3> phases{now % mtu_time,
                                           (now + kProp) % mtu_time,
                                           (now + last_time) % mtu_time};
  for (const detail::Train* o : trains_->open_) {
    for (const sim::SimTime a : o->phases) {
      for (const sim::SimTime b : phases) {
        if (a == b) return false;
      }
    }
  }

  detail::Train& tr = trains_->acquire();
  tr.up = this;
  tr.down = down;
  tr.set = trains_;
  tr.transfer = next.transfer;
  tr.qp = f.qp;
  tr.up_pos = pos;
  tr.first = next.index - 1;
  tr.last = last;
  tr.psn = next.psn;
  tr.mtu = config_.mtu_bytes;
  tr.last_bytes = last_bytes;
  tr.start = now;
  tr.mtu_time = mtu_time;
  tr.last_time = last_time;
  tr.phases = phases;
  tr.open_counter = sim_.seq_counter();
  tr.end_exact = false;
  tr.up_txs = 0;
  tr.deliveries = 0;
  tr.down_txs = 0;
  train_ = &tr;
  down->train_ = &tr;
  trains_->open_.push_back(&tr);
  sim_.hold_order_log();
  // Posted under a lower bound: the exact key depends on dispatches still
  // to come, and is named when the entry reaches the heap top.
  tr.end = sim_.schedule_keyed(
      tr.end_time(), tr.open_counter - sim::EventQueue::kSeqStep + 1,
      [this] { on_tx_done(); }, &tr);
  return true;
}

Channel::Channel(sim::Simulation& sim, const FabricConfig& config,
                 std::string name)
    : sim_(sim),
      config_(config),
      name_(std::move(name)),
      lanes_(config.qos_enabled
                 ? std::clamp<std::uint8_t>(config.num_vls, 1, qos::kMaxVls)
                 : 1) {
  // Every packet posts its tx-complete one serialization time out (an
  // MTU's, for all but a message's last packet) and its delivery one
  // propagation delay after that.
  sim_.declare_fixed_delay(FabricConfig::propagation_delay);
  sim_.declare_fixed_delay(config_.serialization_time(config_.mtu_bytes));
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
  end_train();
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
  end_train();
  for (std::uint8_t vl = 0; vl < qos::kMaxVls; ++vl) {
    if ((mask & (1u << vl)) == 0) continue;
    if (vl_pause_refs_[vl]++ == 0) vl_paused_since_[vl] = sim_.now();
  }
}

void Channel::resume_vls(std::uint8_t mask) {
  end_train();
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
  sim_.schedule_in(FabricConfig::propagation_delay, [this, mask, pause] {
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
  // A QP appearing on a new lane keeps its configured rate-limit parameters
  // (with a fresh bucket): the rate is a per-QP knob, the lane is a
  // per-packet property.
  for (const auto& f : flows_) {
    if (f.qp != qp) continue;
    nf.rate_bytes_per_sec = f.rate_bytes_per_sec;
    nf.bucket_cap = f.bucket_cap;
    nf.tokens = f.bucket_cap;
    nf.tokens_updated = sim_.now();
    break;
  }
  if (nf.rate_bytes_per_sec > 0.0) ++limited_flows_;
  flows_.push_back(std::move(nf));
  flow_index_[key] = static_cast<std::uint32_t>(flows_.size());
  return flows_.back();
}

void Channel::apply_rate_limit(Flow& f, double bytes_per_sec,
                               std::uint32_t burst_bytes) {
  const bool was_limited = f.rate_bytes_per_sec > 0.0;
  if (was_limited != (bytes_per_sec > 0.0)) {
    if (was_limited) {
      --limited_flows_;
    } else {
      ++limited_flows_;
    }
  }
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
  end_train();
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
      static_cast<double>(f.packets.front().next.bytes) - f.tokens;
  if (needed <= 0.0) return sim_.now();
  const double wait_ns = needed / f.rate_bytes_per_sec * 1e9;
  return sim_.now() + static_cast<sim::SimDuration>(wait_ns) + 1;
}

void Channel::enqueue(detail::Packet&& pkt) {
  if (sink_ == nullptr) {
    throw std::logic_error("Channel '" + name_ + "': no sink connected");
  }
  // A train's own predecessors reach its downlink as real packets; any
  // other packet on either channel ends the train first.
  if (train_ != nullptr &&
      (this != train_->down || pkt.transfer->src_qp->num() != train_->qp)) {
    end_train();
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
  const QpNum qp = pkt.transfer->src_qp->num();
  if (sim_.tracer().enabled()) trace_enqueue(qp, pkt.bytes);
  account(vl, 1, pkt.bytes);
  flow_for(qp, vl).packets.push_back(Queued{std::move(pkt)});
  // Per-lane XOFF on the post-admission occupancy (this packet counts).
  if (pfc_on_ && !vl_xoff_[vl]) check_xoff(vl);
  // A paused lane leaves the others free, so try_start applies the gate.
  if (!busy_) try_start();
}

void Channel::enqueue_run(detail::TransferRef transfer, std::uint64_t psn,
                          bool psn_step) {
  if (sink_ == nullptr) {
    throw std::logic_error("Channel '" + name_ + "': no sink connected");
  }
  // The queue entry keeps the transfer alive while packets remain in it.
  const detail::Transfer& t = *transfer;
  const std::uint8_t vl = t.vl < lanes_ ? t.vl : 0;
  const QpNum qp = t.src_qp->num();
  // The train's own flow only queues behind it; another flow ends it.
  if (train_ != nullptr && (this != train_->up || qp != train_->qp)) {
    end_train();
  }
  const std::uint32_t count = t.total_packets;
  const std::uint32_t first = t.packet_bytes(0, config_.mtu_bytes);
  const bool traced = sim_.tracer().enabled();
  // The first packet is counted and arbitrated alone, as the first of
  // `count` enqueue() calls is: it may launch now, before the rest count.
  if (traced) trace_enqueue(qp, first);
  account(vl, 1, first);
  flow_for(qp, vl).packets.push_back(Queued{
      detail::Packet{std::move(transfer), 0, first, psn, false, false}, count,
      psn_step});
  if (!busy_) try_start();
  if (count == 1) return;
  // The rest only join the backlog. Each later enqueue() would retry an
  // arbitration that failed above; at the same instant, behind the same
  // flow head, the retry fails the same way and changes nothing.
  if (traced) {
    // One at a time, so each counter reads the backlog it would have.
    for (std::uint32_t i = 1; i < count; ++i) {
      const std::uint32_t bytes = t.packet_bytes(i, config_.mtu_bytes);
      trace_enqueue(qp, bytes);
      account(vl, 1, bytes);
    }
  } else {
    account(vl, count - 1, t.wire_length - first);
  }
}

void Channel::account(std::uint8_t vl, std::uint64_t packets,
                      std::uint64_t bytes) {
  backlog_pkts_ += packets;
  backlog_bytes_ += bytes;
  vl_backlog_pkts_[vl] += packets;
  vl_backlog_bytes_[vl] += bytes;
  if (pool_ != nullptr) pool_->acquire(bytes);
}

void Channel::trace_enqueue(QpNum qp, std::uint32_t bytes) {
  sim_.tracer().instant("pkt.enqueue", "fabric",
                        {"qp", static_cast<double>(qp)},
                        {"bytes", static_cast<double>(bytes)});
  sim_.tracer().counter(name_.c_str(), "backlog",
                        static_cast<double>(backlog_packets() + 1));
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
  Queued& head = f.packets.front();
  const bool cut = head.count > 1;
  // A run entry keeps the rest: cut a copy of its next packet, then advance
  // the entry. A last packet leaves with its entry.
  detail::Packet pkt =
      cut ? detail::Packet(head.next) : f.packets.pop_front().next;
  if (cut) {
    --head.count;
    detail::Packet& next = head.next;
    ++next.index;
    if (head.psn_step) ++next.psn;
    next.bytes = next.transfer->packet_bytes(next.index, config_.mtu_bytes);
  }
  --backlog_pkts_;
  backlog_bytes_ -= pkt.bytes;
  vl_backlog_bytes_[f.vl] -= pkt.bytes;
  --vl_backlog_pkts_[f.vl];
  if (pool_ != nullptr) pool_->release(pkt.bytes);
  // The departure may have drained this lane below XON: resume upstreams.
  if (vl_xoff_[f.vl]) check_xon(f.vl);
  if (f.rate_bytes_per_sec > 0.0) {
    f.tokens -= static_cast<double>(pkt.bytes);
  }
  vl_cursor_[f.vl] = pos + 1;

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
  const sim::SimTime prev_end = tx_end_;
  tx_end_ = sim_.now() + tx;
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
  if (trains_ != nullptr && cut && pkt.transfer->count_only &&
      try_open_train(pos, prev_end)) {
    return;
  }
  // The packet waits in the in-flight FIFO, not in the events: they are
  // posts of `this`.
  tx_delivers_ = fate != PacketFate::kDrop;
  detail::Transfer& t = *pkt.transfer;
  if (tx_delivers_ && final_hop_ && t.count_only && !pkt.ecn && !pkt.last()) {
    // Its arrival would only bump this count, and nothing reads the count
    // before the transfer's last packet arrives, behind this one.
    ++t.delivered_packets;
    tx_delivers_ = false;
  }
  if (tx_delivers_) in_flight_.push_back(std::move(pkt));
  sim_.post_in(
      tx, [](void* self) { static_cast<Channel*>(self)->on_tx_done(); }, this);
}

void Channel::on_tx_done() {
  // On a train's uplink this is the tx-complete of its last packet.
  if (train_ != nullptr && train_->up == this) train_->finish(true);
  busy_ = false;
  if (tx_delivers_) {
    sim_.post_in(
        FabricConfig::propagation_delay,
        [](void* self) { static_cast<Channel*>(self)->deliver(); }, this);
  }
  try_start();
}

void Channel::deliver() { sink_(sink_ctx_, in_flight_.pop_front()); }

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
    if (limited_flows_ == 0) {
      // No bucket to refill: every head packet may go, so a lane competes
      // when it holds a packet and is not paused.
      for (std::uint8_t v = 0; v < lanes_; ++v) {
        if (vl_backlog_pkts_[v] > 0 && vl_pause_refs_[v] == 0) {
          eligible |= static_cast<std::uint8_t>(1u << v);
        }
      }
    } else {
      for (auto& f : flows_) {
        if (f.packets.empty()) continue;
        if (vl_pause_refs_[f.vl] > 0) continue;
        if (!may_send(f, f.packets.front().next.bytes)) {
          rate_blocked = true;
          continue;
        }
        eligible |= static_cast<std::uint8_t>(1u << f.vl);
      }
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
  // Round-robin with per-flow token buckets within the lane, from the
  // lane's own cursor (heavy lanes never skew fairness inside quiet ones):
  // grant the first flow that has a packet and the tokens to send it. The
  // token bucket is the bandwidth-limit control of newer IB HCAs.
  // The cursor is at most n (one past the last flow granted), so the scan
  // wraps with a compare.
  const std::size_t n = flows_.size();
  std::size_t pos = vl_cursor_[vl] < n ? vl_cursor_[vl] : 0;
  for (std::size_t probe = 0; probe < n; ++probe, ++pos) {
    if (pos == n) pos = 0;
    Flow& f = flows_[pos];
    if (f.vl != vl || f.packets.empty()) continue;
    if (!may_send(f, f.packets.front().next.bytes)) {
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
