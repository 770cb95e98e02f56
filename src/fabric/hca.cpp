#include "fabric/hca.hpp"

#include <algorithm>
#include <stdexcept>

#include "fabric/fabric.hpp"

namespace resex::fabric {

namespace {
/// Doorbell ring -> WQE picked up and parsed by the HCA.
constexpr sim::SimDuration kWqePickup =
    FabricConfig::doorbell_latency + FabricConfig::wqe_processing;
/// CQE DMA write cost, ns.
constexpr sim::SimDuration kCompletionDma = 100;
/// Base RC ack timeout, armed while Fabric::reliable() holds (a fault hook
/// is installed or finite switch buffers can drop). start_transfer adds
/// queueing headroom; each retry doubles the RTO. 1 ms is ~5x the interfered
/// round trip and well above the worst-case WRR queueing delay observed
/// under a saturating 2MB neighbour (a few hundred us).
constexpr sim::SimDuration kRetransmitTimeout = sim::kMillisecond;
/// Transport retries before the QP transitions to the error state and the
/// WR completes with kRetryExceeded (IB's transport retry_cnt analogue).
constexpr std::uint32_t kTransportRetryLimit = 7;
}  // namespace

Hca::Hca(Fabric& fabric, hv::Node& node, std::uint32_t hca_id)
    : fabric_(&fabric), node_(&node), id_(hca_id) {
  auto& sim = fabric.simulation();
  uplink_ = std::make_unique<Channel>(sim, fabric.config(),
                                      node.name() + "/up");
  downlink_ = std::make_unique<Channel>(sim, fabric.config(),
                                        node.name() + "/down");
  uplink_->set_sink(
      [](void* self, detail::Packet&& p) {
        const auto& hca = *static_cast<Hca*>(self);
        hca.fabric_->route_from(hca, std::move(p));
      },
      this);
  downlink_->set_sink(
      [](void* self, detail::Packet&& p) {
        static_cast<Hca*>(self)->on_packet(std::move(p));
      },
      this);
  downlink_->mark_final_hop();
  // A transfer to a host on this HCA's own switch may cross it as a packet
  // train: the uplink needs that host's downlink.
  uplink_->enable_trains(
      *fabric.trains_,
      [](void* self, const detail::Transfer& t) -> Channel* {
        const auto& hca = *static_cast<Hca*>(self);
        Hca& dst = t.dst_qp->hca();
        return hca.fabric_->switch_of(hca.id_) ==
                       hca.fabric_->switch_of(dst.id_)
                   ? &dst.downlink()
                   : nullptr;
      },
      this);
  // The downlink is a switch egress port (finite buffer, ECN and PFC apply
  // there); the uplink is this HCA's own transmit queue and never drops.
  // Fabric::add_node configures the downlink as a switch port — the switch
  // it belongs to (whose pool and feeders it needs) is unknown here.
  // Fabric-wide aggregates (same entries for every HCA on this simulation),
  // resolved once so the data path only touches raw counters.
  auto& metrics = sim.metrics();
  transfers_done_ = &metrics.counter("fabric.transfers");
  rnr_retries_ = &metrics.counter("fabric.rnr_retries");
  wire_latency_ns_ = &metrics.histogram("fabric.wire_latency_ns");
  retransmits_ = &metrics.counter("fabric.retransmits");
  qp_fatal_errors_ = &metrics.counter("fabric.qp_fatal_errors");
  wr_flushes_ = &metrics.counter("fabric.wr_flushes");
  if (fabric.fault_hook() != nullptr) {
    uplink_->set_fault_hook(fabric.fault_hook());
    downlink_->set_fault_hook(fabric.fault_hook());
  }
}

std::uint32_t Hca::alloc_pd(hv::Domain& domain) {
  const std::uint32_t pd = next_pd_++;
  pd_owner_.emplace(pd, &domain);
  return pd;
}

mem::RegisteredRegion Hca::reg_mr(std::uint32_t pd, hv::Domain& domain,
                                  mem::GuestAddr addr, std::size_t length,
                                  mem::Access access) {
  const auto it = pd_owner_.find(pd);
  if (it == pd_owner_.end() || it->second != &domain) {
    throw std::invalid_argument("Hca::reg_mr: PD does not belong to domain");
  }
  if (addr + length > domain.memory().size_bytes()) {
    throw mem::BadGuestAccess("Hca::reg_mr: region beyond guest memory");
  }
  const auto region = tpt_.register_region(pd, addr, length, access);
  mr_owner_.emplace(region.lkey, &domain);
  return region;
}

bool Hca::dereg_mr(mem::MemKey key) {
  if (!tpt_.deregister_region(key)) return false;
  mr_owner_.erase(key);
  return true;
}

CompletionQueue& Hca::create_cq(hv::Domain& domain, std::uint32_t entries) {
  const std::size_t ring_bytes = std::size_t{entries} * sizeof(Cqe);
  const std::size_t pages =
      (ring_bytes + mem::kPageSize - 1) / mem::kPageSize;
  const mem::GuestAddr base = domain.allocator().allocate_pages(pages);
  cqs_.push_back(std::make_unique<CompletionQueue>(
      fabric_->simulation(), domain.memory(), base, entries,
      fabric_->next_cq_id()));
  cq_domain_.emplace(cqs_.back()->id(), domain.id());
  return *cqs_.back();
}

QueuePair& Hca::create_qp(hv::Domain& domain, std::uint32_t pd,
                          CompletionQueue& send_cq,
                          CompletionQueue& recv_cq) {
  const auto it = pd_owner_.find(pd);
  if (it == pd_owner_.end() || it->second != &domain) {
    throw std::invalid_argument("Hca::create_qp: PD does not belong to domain");
  }
  qps_.push_back(std::make_unique<QueuePair>(fabric_->next_qp_num(), *this,
                                             domain, pd, send_cq, recv_cq));
  QueuePair& qp = *qps_.back();
  // Carve the send-queue ring and a UAR page (doorbell record at offset 0)
  // out of the guest's memory: the real post path writes these bytes.
  constexpr std::uint32_t kSqEntries = 128;
  const mem::GuestAddr sq_base = domain.allocator().allocate(
      std::size_t{kSqEntries} * kSqSlotBytes, mem::kPageSize);
  const mem::GuestAddr uar = domain.allocator().allocate_pages(1);
  qp.set_send_queue(sq_base, kSqEntries, uar);
  return qp;
}

std::vector<CompletionQueue*> Hca::domain_cqs(hv::DomainId id) {
  std::vector<CompletionQueue*> out;
  for (auto& cq : cqs_) {
    const auto it = cq_domain_.find(cq->id());
    if (it != cq_domain_.end() && it->second == id) out.push_back(cq.get());
  }
  return out;
}

void Hca::validate_post(const QueuePair& qp, const SendWr& wr) const {
  if (qp.state() != QpState::kReadyToSend) {
    throw std::logic_error("Hca::post_send: QP not connected");
  }
  // No zero-length exemption: a non-empty header on a zero-byte message
  // would make dma_header write bytes the TPT only validated for length 0.
  if (wr.header.size() > wr.length) {
    throw std::invalid_argument("Hca::post_send: header longer than message");
  }
}

void Hca::post_send(QueuePair& qp, SendWr wr) {
  if (qp.state() == QpState::kError) {
    flush_send(qp, wr);
    return;
  }
  validate_post(qp, wr);
  auto& sim = fabric_->simulation();
  const sim::SimTime pickup = std::max(sim.now() + kWqePickup, stall_until_);
  sim.schedule_at(pickup,
                  [this, &qp, wr = std::move(wr), rung = sim.now()]() mutable {
    auto& tracer = fabric_->simulation().tracer();
    if (tracer.enabled()) {
      tracer.complete("hca.wqe_fetch", "fabric", rung,
                      fabric_->simulation().now() - rung,
                      {"qp", static_cast<double>(qp.num())}, {"wqes", 1.0});
    }
    process_wqe(qp, std::move(wr));
  });
}

void Hca::ring_doorbell(QueuePair& qp) {
  // From here on, no guest CPU is involved: after the pickup latency the
  // HCA reads the doorbell record and the announced WQEs out of guest
  // memory on its own. A stalled WQE-fetch pipeline (fault injection)
  // pushes the pickup out to stall_until_.
  auto& sim = fabric_->simulation();
  const sim::SimTime pickup = std::max(sim.now() + kWqePickup, stall_until_);
  sim.schedule_at(pickup, [this, &qp, rung = sim.now()] {
    const std::uint64_t announced = qp.doorbell_value();
    auto& tracer = fabric_->simulation().tracer();
    if (tracer.enabled()) {
      // Doorbell-to-pickup latency span, covering the configured fetch costs
      // plus any injected pipeline stall.
      tracer.complete("hca.doorbell", "fabric", rung,
                      fabric_->simulation().now() - rung,
                      {"qp", static_cast<double>(qp.num())},
                      {"wqes", static_cast<double>(
                                   announced > qp.sq_fetched()
                                       ? announced - qp.sq_fetched()
                                       : 0)});
    }
    while (qp.sq_fetched() < announced) {
      process_wqe(qp, qp.fetch_wqe(qp.sq_fetched()));
    }
  });
}

void Hca::process_wqe(QueuePair& qp, SendWr wr) {
  // A QP that errored out while this WQE sat in the ring flushes it.
  if (qp.state() == QpState::kError) {
    flush_send(qp, wr);
    return;
  }
  // Local buffer validation: a write only reads its source, so it needs a
  // valid, in-bounds registration and no access right.
  const auto status =
      tpt_.validate(wr.lkey, qp.pd(), wr.local_addr, wr.length,
                    mem::Access::kNone, /*check_pd=*/true);
  if (status != mem::TptStatus::kOk) {
    detail::Transfer failed;
    failed.wr = std::move(wr);
    failed.src_qp = &qp;
    failed.dst_qp = qp.peer();
    complete_send(failed, CqeStatus::kLocalProtectionError);
    return;
  }
  start_transfer(qp, std::move(wr));
}

void Hca::start_transfer(QueuePair& src, SendWr wr) {
  const auto& cfg = fabric_->config();
  QueuePair& dst = *src.peer();
  auto t = detail::TransferRef::make();
  t->wire_length = std::max<std::uint32_t>(wr.length, 1);
  t->wr = std::move(wr);
  t->src_qp = &src;
  t->dst_qp = &dst;
  t->total_packets = cfg.packets_for(t->wire_length);
  // SL resolution happens once per transfer: the WR's explicit SL wins,
  // otherwise the sending QP's.
  t->sl = t->wr.sl == kInheritSl ? src.service_level()
                                 : static_cast<std::uint8_t>(
                                       t->wr.sl % FabricConfig::kMaxSls);
  t->vl = cfg.vl_for_sl(t->sl);
  // Deadlock-avoidance lane shift (resex::routing): decided per route at
  // injection, not at the wrap-around hop — a mid-path VL rewrite would put
  // the upstream half of the route outside the shifted lane's PFC pause
  // scope and turn "lossless" into silent drops. The whole transfer (every
  // packet, retransmits included) travels the shifted lane; see DESIGN.md
  // §11 for why injection-time assignment is still deadlock-free.
  if (cfg.routing.vl_shift) {
    t->vl = fabric_->shifted_vl(t->vl, src.hca().id(), dst.hca().id());
  }
  t->started_at = fabric_->simulation().now();
  src.account_sent(t->wire_length);

  const bool reliable = fabric_->reliable();
  // Without drops or adaptive re-placement, a transfer's packets reach its
  // destination in index order, so the last one completes it.
  t->count_only =
      !reliable && cfg.routing.mode != routing::RouteMode::kAdaptive;
  if (reliable) {
    t->received.assign(t->total_packets, false);
    // Base timeout plus generous queueing headroom: a transfer stuck behind
    // several max-size neighbours on a shared port must not time out while
    // its packets are merely waiting for arbitration.
    t->rto = kRetransmitTimeout + 8 * cfg.serialization_time(t->wire_length);
  }
  // One run entry for the whole message: the uplink cuts each packet as it
  // wins arbitration, from a PSN range reserved here.
  const std::uint64_t psn = reliable ? src.reserve_psns(t->total_packets) : 0;
  uplink_->enqueue_run(t, psn, reliable);
  if (reliable) arm_retransmit(t);
}

void Hca::arm_retransmit(const detail::TransferRef& t) {
  t->retx_timer.cancel();
  t->retx_timer = fabric_->simulation().schedule_in(
      t->rto, [this, t] { on_retransmit_timeout(t); });
}

void Hca::on_retransmit_timeout(const detail::TransferRef& t) {
  if (t->completed) return;
  const auto& cfg = fabric_->config();
  if (t->transport_retries_used >= kTransportRetryLimit) {
    fail_qp(*t, CqeStatus::kRetryExceeded);
    return;
  }
  ++t->transport_retries_used;
  retransmits_->add();
  // Resend only the packets that never arrived (SACK-style go-where-missing;
  // real RC would go-back-N from the first hole — the difference does not
  // affect the experiments' shape and keeps duplicate traffic bounded).
  std::uint32_t missing = 0;
  for (std::uint32_t i = 0; i < t->total_packets; ++i) {
    if (t->received[i]) continue;
    ++missing;
    uplink_->enqueue(detail::Packet{t, i, t->packet_bytes(i, cfg.mtu_bytes),
                                    t->src_qp->advance_psn(), false, false});
  }
  RESEX_TRACE_INSTANT(fabric_->simulation().tracer(), "transfer.retransmit",
                      "fault",
                      {"qp", static_cast<double>(t->src_qp->num())},
                      {"missing", static_cast<double>(missing)});
  t->rto *= 2;  // exponential backoff
  arm_retransmit(t);
}

void Hca::maybe_nak(const detail::TransferRef& t) {
  // Packets of one transfer stay in wire order, so a received index above
  // the contiguous prefix proves the prefix's gap was dropped (or failed its
  // CRC) — not merely late. One NAK in flight at a time keeps duplicate
  // retransmissions bounded; the sender's ack timeout backstops a lost tail.
  if (t->nak_pending || t->max_rcv_index <= t->rcv_contig) return;
  t->nak_pending = true;
  t->nak_floor = t->max_rcv_index;
  fabric_->simulation().schedule_in(
      FabricConfig::ack_delay,
      [sender = &t->src_qp->hca(), t] { sender->fast_retransmit(t); });
}

void Hca::fast_retransmit(const detail::TransferRef& t) {
  if (t->completed) return;
  const auto& cfg = fabric_->config();
  // Only the holes below the receiver's high-water mark are provably lost;
  // anything beyond it may still be in flight.
  std::uint32_t missing = 0;
  for (std::uint32_t i = t->rcv_contig; i < t->max_rcv_index; ++i) {
    if (t->received[i]) continue;
    ++missing;
    uplink_->enqueue(detail::Packet{t, i, t->packet_bytes(i, cfg.mtu_bytes),
                                    t->src_qp->advance_psn(), false, false});
  }
  if (missing == 0) return;
  retransmits_->add();
  RESEX_TRACE_INSTANT(fabric_->simulation().tracer(), "transfer.nak_retransmit",
                      "fault",
                      {"qp", static_cast<double>(t->src_qp->num())},
                      {"missing", static_cast<double>(missing)});
}

void Hca::fail_qp(detail::Transfer& t, CqeStatus status) {
  t.completed = true;
  t.retx_timer.cancel();
  QueuePair& origin = *t.src_qp;
  origin.set_error();
  qp_fatal_errors_->add();
  RESEX_TRACE_INSTANT(fabric_->simulation().tracer(), "qp.error", "fault",
                      {"qp", static_cast<double>(origin.num())},
                      {"status", static_cast<double>(
                                     static_cast<std::uint8_t>(status))});
  // The congestion controller must drop its per-flow state (timers, rate
  // cap) for a dead QP — its references would dangle otherwise.
  if (fabric_->congestion_hook() != nullptr) {
    fabric_->congestion_hook()->on_qp_error(origin);
  }
  complete_send(t, status);
  // A QP entering the error state flushes its receive queue too: without
  // this, a consumer waiting on the receive CQ for a message the dead QP can
  // no longer deliver would wedge forever (observed as a stuck step barrier
  // in bulk-synchronous collectives under stall/flap faults). Flushed after
  // the originating error completion so the root cause surfaces first.
  flush_recv_queue(origin);
}

void Hca::flush_recv_queue(QueuePair& qp) {
  auto& sim = fabric_->simulation();
  while (auto recv = qp.consume_recv()) {
    wr_flushes_->add();
    Cqe cqe;
    cqe.wr_id = recv->wr_id;
    cqe.qp_num = qp.num();
    cqe.opcode = static_cast<std::uint8_t>(CqeOpcode::kRecv);
    cqe.status = static_cast<std::uint8_t>(CqeStatus::kWrFlushError);
    sim.schedule_in(kCompletionDma,
                    [cq = &qp.recv_cq(), cqe] { cq->produce(cqe); });
  }
}

void Hca::flush_send(QueuePair& qp, const SendWr& wr) {
  wr_flushes_->add();
  Cqe cqe;
  cqe.wr_id = wr.wr_id;
  cqe.qp_num = qp.num();
  cqe.byte_len = wr.length;
  cqe.imm_data = wr.imm_data;
  cqe.opcode = static_cast<std::uint8_t>(CqeOpcode::kSendComplete);
  cqe.status = static_cast<std::uint8_t>(CqeStatus::kWrFlushError);
  // Flushes never touch the wire: only the CQE DMA cost applies.
  fabric_->simulation().schedule_in(
      kCompletionDma,
      [cq = &qp.send_cq(), cqe] { cq->produce(cqe); });
}

void Hca::on_packet(detail::Packet&& pkt) {
  // ECN feedback: a marked, uncorrupted data arrival is DCQCN's CNP trigger.
  // Notified before reassembly bookkeeping so even duplicates of marked
  // packets count — the mark reports the state of the path, not the payload.
  if (pkt.ecn && !pkt.corrupted && fabric_->congestion_hook() != nullptr) {
    fabric_->congestion_hook()->on_marked_arrival(*pkt.transfer->src_qp);
  }
  if (fabric_->reliable()) {
    detail::Transfer& rt = *pkt.transfer;
    // Late arrivals for an already-completed (or errored-out) transfer and
    // duplicates from retransmission are silently discarded; corrupted
    // payloads fail their CRC here and count on the sender's ack timer.
    if (rt.completed || pkt.corrupted || rt.received[pkt.index]) return;
    rt.received[pkt.index] = true;
    if (pkt.index > rt.max_rcv_index) rt.max_rcv_index = pkt.index;
    while (rt.rcv_contig < rt.total_packets && rt.received[rt.rcv_contig]) {
      ++rt.rcv_contig;
    }
    if (rt.nak_pending && rt.rcv_contig >= rt.nak_floor) {
      rt.nak_pending = false;
    }
    if (++rt.delivered_packets < rt.total_packets) {
      maybe_nak(pkt.transfer);
      return;
    }
    rt.completed = true;
    rt.retx_timer.cancel();
  } else if (++pkt.transfer->delivered_packets <
             pkt.transfer->total_packets) {
    return;
  }
  // Last packet in: the message's wire phase is over (retries and CQE
  // delivery happen after this point and are traced separately).
  detail::Transfer& t = *pkt.transfer;
  auto& sim = fabric_->simulation();
  transfers_done_->add();
  wire_latency_ns_->observe(sim.now() - t.started_at);
  if (sim.tracer().enabled()) {
    sim.tracer().complete(
        "transfer", "fabric", t.started_at, sim.now() - t.started_at,
        {"qp", static_cast<double>(t.src_qp->num())},
        {"bytes", static_cast<double>(t.wire_length)});
  }
  deliver(pkt.transfer);
}

void Hca::deliver(const detail::TransferRef& t) {
  if (t->dst_qp->state() == QpState::kError) {
    // The target QP died (or was torn down) while this message was in
    // flight: its receive queue is flushed, so an RNR loop would never
    // resolve. The sender sees a remote-operation error instead.
    complete_send(*t, CqeStatus::kRemoteOperationError);
    return;
  }
  deliver_write(t, t->wr.opcode == Opcode::kRdmaWriteWithImm);
}

bool Hca::retry_rnr(const detail::TransferRef& t) {
  const auto& cfg = fabric_->config();
  if (cfg.rnr_retry_limit != FabricConfig::kInfiniteRnrRetry &&
      t->rnr_retries_used >= cfg.rnr_retry_limit) {
    return false;
  }
  ++t->rnr_retries_used;
  rnr_retries_->add();
  RESEX_TRACE_INSTANT(fabric_->simulation().tracer(), "rnr.retry", "fabric",
                      {"qp", static_cast<double>(t->dst_qp->num())},
                      {"attempt", static_cast<double>(t->rnr_retries_used)});
  fabric_->simulation().schedule_in(FabricConfig::rnr_retry_delay,
                                    [this, t] { deliver(t); });
  return true;
}

void Hca::deliver_write(const detail::TransferRef& t, bool with_imm) {
  // Validate the remote key against *this* HCA's TPT (we are the target).
  const auto status =
      tpt_.validate(t->wr.rkey, /*pd=*/0, t->wr.remote_addr, t->wr.length,
                    mem::Access::kRemoteWrite, /*check_pd=*/false);
  if (status != mem::TptStatus::kOk) {
    complete_send(*t, CqeStatus::kRemoteAccessError);
    return;
  }
  std::optional<RecvWr> recv;
  if (with_imm) {
    recv = t->dst_qp->consume_recv();
    if (!recv) {
      // Receiver not ready: NAK + retry later, like an RC HCA.
      if (!retry_rnr(t)) {
        if (fabric_->reliable()) {
          fail_qp(*t, CqeStatus::kRnrRetryExceeded);
        } else {
          complete_send(*t, CqeStatus::kRnrRetryExceeded);
        }
      }
      return;
    }
  }
  const auto owner = mr_owner_.find(t->wr.rkey);
  if (owner == mr_owner_.end()) {
    complete_send(*t, CqeStatus::kRemoteAccessError);
    return;
  }
  dma_header(*owner->second, t->wr.remote_addr, t->wr.header);
  if (with_imm) {
    Cqe cqe;
    cqe.wr_id = recv->wr_id;
    cqe.qp_num = t->dst_qp->num();
    cqe.byte_len = t->wr.length;
    cqe.imm_data = t->wr.imm_data;
    cqe.opcode = static_cast<std::uint8_t>(CqeOpcode::kRecvRdmaWithImm);
    cqe.status = static_cast<std::uint8_t>(CqeStatus::kSuccess);
    t->dst_qp->recv_cq().produce(cqe);
  }
  complete_send(*t, CqeStatus::kSuccess);
}

void Hca::complete_send(detail::Transfer& t, CqeStatus status) {
  if (status == CqeStatus::kSuccess && !t.wr.signaled) return;

  Cqe cqe;
  cqe.wr_id = t.wr.wr_id;
  cqe.qp_num = t.src_qp->num();
  cqe.byte_len = t.wr.length;
  cqe.imm_data = t.wr.imm_data;
  cqe.opcode = static_cast<std::uint8_t>(CqeOpcode::kSendComplete);
  cqe.status = static_cast<std::uint8_t>(status);
  // The ACK travels back to the sender before the CQE is DMA-written.
  fabric_->simulation().schedule_in(
      FabricConfig::ack_delay + kCompletionDma,
      [cq = &t.src_qp->send_cq(), cqe] { cq->produce(cqe); });
}

void Hca::dma_header(hv::Domain& domain, mem::GuestAddr addr,
                     const std::vector<std::byte>& header) {
  if (header.empty()) return;
  domain.memory().write(addr, header);
}

}  // namespace resex::fabric
