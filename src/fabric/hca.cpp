#include "fabric/hca.hpp"

#include <algorithm>
#include <stdexcept>

namespace resex::fabric {

namespace {
/// Wire size of an RDMA-read request (header-only packet).
constexpr std::uint32_t kReadRequestBytes = 64;
}  // namespace

Hca::Hca(Fabric& fabric, hv::Node& node, std::uint32_t hca_id)
    : fabric_(&fabric), node_(&node), id_(hca_id) {
  auto& sim = fabric.simulation();
  uplink_ = std::make_unique<Channel>(sim, fabric.config(),
                                      node.name() + "/up");
  downlink_ = std::make_unique<Channel>(sim, fabric.config(),
                                        node.name() + "/down");
  uplink_->set_sink(
      [this](detail::Packet p) { fabric_->route_from(*this, std::move(p)); });
  downlink_->set_sink([this](detail::Packet p) { on_packet(std::move(p)); });
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
  const auto& cfg = fabric_->config();
  auto& sim = fabric_->simulation();
  const sim::SimTime pickup = std::max(
      sim.now() + cfg.doorbell_latency + cfg.wqe_processing, stall_until_);
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
  const auto& cfg = fabric_->config();
  auto& sim = fabric_->simulation();
  const sim::SimTime pickup = std::max(
      sim.now() + cfg.doorbell_latency + cfg.wqe_processing, stall_until_);
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
  // Local buffer validation. RDMA-read needs local *write* rights (response
  // data lands in the local buffer); everything else only needs a valid,
  // in-bounds registration.
  const mem::Access required = wr.opcode == Opcode::kRdmaRead
                                   ? mem::Access::kLocalWrite
                                   : mem::Access::kNone;
  const auto status = tpt_.validate(wr.lkey, qp.pd(), wr.local_addr,
                                    wr.length, required, /*check_pd=*/true);
  if (status != mem::TptStatus::kOk) {
    detail::Transfer failed;
    failed.wr = std::move(wr);
    failed.src_qp = &qp;
    failed.dst_qp = qp.peer();
    complete_send(failed, CqeStatus::kLocalProtectionError);
    return;
  }
  start_transfer(qp, *qp.peer(), std::move(wr), /*read_response=*/false);
}

void Hca::start_transfer(QueuePair& src, QueuePair& dst, SendWr wr,
                         bool read_response) {
  const auto& cfg = fabric_->config();
  auto t = std::make_shared<detail::Transfer>();
  const bool is_read_request =
      wr.opcode == Opcode::kRdmaRead && !read_response;
  t->wire_length = is_read_request ? kReadRequestBytes
                                   : std::max<std::uint32_t>(wr.length, 1);
  t->wr = std::move(wr);
  t->src_qp = &src;
  t->dst_qp = &dst;
  t->total_packets = cfg.packets_for(t->wire_length);
  t->read_response = read_response;
  // SL resolution happens once per transfer: the WR's explicit SL wins,
  // otherwise the sending QP's. A read response re-resolves at the serving
  // QP, so give both ends of a connection the same SL (connect() callers
  // here always do) to keep a read's two directions in one class.
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
  if (reliable) {
    t->received.assign(t->total_packets, false);
    // Base timeout plus generous queueing headroom: a transfer stuck behind
    // several max-size neighbours on a shared port must not time out while
    // its packets are merely waiting for arbitration.
    t->rto = cfg.retransmit_timeout + 8 * cfg.serialization_time(t->wire_length);
  }
  for (std::uint32_t i = 0; i < t->total_packets; ++i) {
    const std::uint64_t offset = std::uint64_t{i} * cfg.mtu_bytes;
    const auto bytes = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cfg.mtu_bytes, t->wire_length - offset));
    uplink_->enqueue(
        detail::Packet{t, i, bytes, reliable ? src.advance_psn() : 0, false});
  }
  if (reliable) arm_retransmit(t);
}

void Hca::arm_retransmit(const std::shared_ptr<detail::Transfer>& t) {
  t->retx_timer.cancel();
  t->retx_timer = fabric_->simulation().schedule_in(
      t->rto, [this, t] { on_retransmit_timeout(t); });
}

void Hca::on_retransmit_timeout(const std::shared_ptr<detail::Transfer>& t) {
  if (t->completed) return;
  const auto& cfg = fabric_->config();
  if (t->transport_retries_used >= cfg.transport_retry_limit) {
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
    const std::uint64_t offset = std::uint64_t{i} * cfg.mtu_bytes;
    const auto bytes = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cfg.mtu_bytes, t->wire_length - offset));
    uplink_->enqueue(
        detail::Packet{t, i, bytes, t->src_qp->advance_psn(), false});
  }
  RESEX_TRACE_INSTANT(fabric_->simulation().tracer(), "transfer.retransmit",
                      "fault",
                      {"qp", static_cast<double>(t->src_qp->num())},
                      {"missing", static_cast<double>(missing)});
  t->rto *= 2;  // exponential backoff
  arm_retransmit(t);
}

void Hca::maybe_nak(const std::shared_ptr<detail::Transfer>& t) {
  // Packets of one transfer stay in wire order, so a received index above
  // the contiguous prefix proves the prefix's gap was dropped (or failed its
  // CRC) — not merely late. One NAK in flight at a time keeps duplicate
  // retransmissions bounded; the sender's ack timeout backstops a lost tail.
  if (t->nak_pending || t->max_rcv_index <= t->rcv_contig) return;
  t->nak_pending = true;
  t->nak_floor = t->max_rcv_index;
  fabric_->simulation().schedule_in(
      fabric_->config().ack_delay,
      [sender = &t->src_qp->hca(), t] { sender->fast_retransmit(t); });
}

void Hca::fast_retransmit(const std::shared_ptr<detail::Transfer>& t) {
  if (t->completed) return;
  const auto& cfg = fabric_->config();
  // Only the holes below the receiver's high-water mark are provably lost;
  // anything beyond it may still be in flight.
  std::uint32_t missing = 0;
  for (std::uint32_t i = t->rcv_contig; i < t->max_rcv_index; ++i) {
    if (t->received[i]) continue;
    ++missing;
    const std::uint64_t offset = std::uint64_t{i} * cfg.mtu_bytes;
    const auto bytes = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cfg.mtu_bytes, t->wire_length - offset));
    uplink_->enqueue(
        detail::Packet{t, i, bytes, t->src_qp->advance_psn(), false});
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
  QueuePair* origin = t.read_response ? t.dst_qp : t.src_qp;
  origin->set_error();
  qp_fatal_errors_->add();
  RESEX_TRACE_INSTANT(fabric_->simulation().tracer(), "qp.error", "fault",
                      {"qp", static_cast<double>(origin->num())},
                      {"status", static_cast<double>(
                                     static_cast<std::uint8_t>(status))});
  // The congestion controller must drop its per-flow state (timers, rate
  // cap) for a dead QP — its references would dangle otherwise.
  if (fabric_->congestion_hook() != nullptr) {
    fabric_->congestion_hook()->on_qp_error(*origin);
  }
  complete_send(t, status);
  // A QP entering the error state flushes its receive queue too: without
  // this, a consumer waiting on the receive CQ for a message the dead QP can
  // no longer deliver would wedge forever (observed as a stuck step barrier
  // in bulk-synchronous collectives under stall/flap faults). Flushed after
  // the originating error completion so the root cause surfaces first.
  flush_recv_queue(*origin);
}

void Hca::flush_recv_queue(QueuePair& qp) {
  const auto& cfg = fabric_->config();
  auto& sim = fabric_->simulation();
  while (auto recv = qp.consume_recv()) {
    wr_flushes_->add();
    Cqe cqe;
    cqe.wr_id = recv->wr_id;
    cqe.qp_num = qp.num();
    cqe.opcode = static_cast<std::uint8_t>(CqeOpcode::kRecv);
    cqe.status = static_cast<std::uint8_t>(CqeStatus::kWrFlushError);
    sim.schedule_in(cfg.completion_dma,
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
  cqe.opcode = static_cast<std::uint8_t>(
      wr.opcode == Opcode::kRdmaRead ? CqeOpcode::kRdmaReadComplete
                                     : CqeOpcode::kSendComplete);
  cqe.status = static_cast<std::uint8_t>(CqeStatus::kWrFlushError);
  // Flushes never touch the wire: only the CQE DMA cost applies.
  fabric_->simulation().schedule_in(
      fabric_->config().completion_dma,
      [cq = &qp.send_cq(), cqe] { cq->produce(cqe); });
}

void Hca::on_packet(detail::Packet pkt) {
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
        t.read_response ? "transfer.read_resp" : "transfer", "fabric",
        t.started_at, sim.now() - t.started_at,
        {"qp", static_cast<double>(t.src_qp->num())},
        {"bytes", static_cast<double>(t.wire_length)});
  }
  deliver(pkt.transfer);
}

void Hca::deliver(const std::shared_ptr<detail::Transfer>& t) {
  if (t->read_response) {
    // Response data arrived at the requester: local DMA done, complete.
    complete_send(*t, CqeStatus::kSuccess);
    return;
  }
  if (t->dst_qp->state() == QpState::kError) {
    // The target QP died (or was torn down) while this message was in
    // flight: its receive queue is flushed, so an RNR loop would never
    // resolve. The sender sees a remote-operation error instead.
    complete_send(*t, CqeStatus::kRemoteOperationError);
    return;
  }
  switch (t->wr.opcode) {
    case Opcode::kRdmaWrite:
      deliver_write(t, /*with_imm=*/false);
      break;
    case Opcode::kRdmaWriteWithImm:
      deliver_write(t, /*with_imm=*/true);
      break;
    case Opcode::kSend:
      deliver_send(t);
      break;
    case Opcode::kRdmaRead:
      serve_read(*t);
      break;
  }
}

bool Hca::retry_rnr(const std::shared_ptr<detail::Transfer>& t) {
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
  fabric_->simulation().schedule_in(cfg.rnr_retry_delay,
                                    [this, t] { deliver(t); });
  return true;
}

void Hca::deliver_write(const std::shared_ptr<detail::Transfer>& t,
                        bool with_imm) {
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

void Hca::deliver_send(const std::shared_ptr<detail::Transfer>& tp) {
  detail::Transfer& t = *tp;
  const auto recv = t.dst_qp->consume_recv();
  if (!recv) {
    if (!retry_rnr(tp)) {
      if (fabric_->reliable()) {
        fail_qp(t, CqeStatus::kRnrRetryExceeded);
      } else {
        complete_send(t, CqeStatus::kRnrRetryExceeded);
      }
    }
    return;
  }
  if (recv->length < t.wr.length) {
    // Receive buffer too small: both sides see the failure.
    Cqe cqe;
    cqe.wr_id = recv->wr_id;
    cqe.qp_num = t.dst_qp->num();
    cqe.byte_len = t.wr.length;
    cqe.opcode = static_cast<std::uint8_t>(CqeOpcode::kRecv);
    cqe.status = static_cast<std::uint8_t>(CqeStatus::kLocalLengthError);
    t.dst_qp->recv_cq().produce(cqe);
    complete_send(t, CqeStatus::kLocalLengthError);
    return;
  }
  const auto status =
      tpt_.validate(recv->lkey, t.dst_qp->pd(), recv->addr, t.wr.length,
                    mem::Access::kLocalWrite, /*check_pd=*/true);
  if (status != mem::TptStatus::kOk) {
    complete_send(t, CqeStatus::kRemoteAccessError);
    return;
  }
  const auto owner = mr_owner_.find(recv->lkey);
  if (owner != mr_owner_.end()) {
    dma_header(*owner->second, recv->addr, t.wr.header);
  }
  Cqe cqe;
  cqe.wr_id = recv->wr_id;
  cqe.qp_num = t.dst_qp->num();
  cqe.byte_len = t.wr.length;
  cqe.imm_data = t.wr.imm_data;
  cqe.opcode = static_cast<std::uint8_t>(CqeOpcode::kRecv);
  cqe.status = static_cast<std::uint8_t>(CqeStatus::kSuccess);
  t.dst_qp->recv_cq().produce(cqe);
  complete_send(t, CqeStatus::kSuccess);
}

void Hca::serve_read(detail::Transfer& t) {
  // We are the read target: validate and autonomously stream the response —
  // zero CPU on this node, the defining RDMA property.
  const auto status =
      tpt_.validate(t.wr.rkey, /*pd=*/0, t.wr.remote_addr, t.wr.length,
                    mem::Access::kRemoteRead, /*check_pd=*/false);
  if (status != mem::TptStatus::kOk) {
    complete_send(t, CqeStatus::kRemoteAccessError);
    return;
  }
  start_transfer(*t.dst_qp, *t.src_qp, t.wr, /*read_response=*/true);
}

void Hca::complete_send(detail::Transfer& t, CqeStatus status) {
  // For read responses the "sender" to complete is the original requester
  // (dst of the response transfer is the requester's QP and the CQE must
  // land there). For everything else it is the transfer's source QP on the
  // origin node.
  QueuePair* target = t.read_response ? t.dst_qp : t.src_qp;
  if (status == CqeStatus::kSuccess && !t.wr.signaled) return;

  const auto& cfg = fabric_->config();
  Cqe cqe;
  cqe.wr_id = t.wr.wr_id;
  cqe.qp_num = target->num();
  cqe.byte_len = t.wr.length;
  cqe.imm_data = t.wr.imm_data;
  cqe.opcode = static_cast<std::uint8_t>(
      t.wr.opcode == Opcode::kRdmaRead ? CqeOpcode::kRdmaReadComplete
                                       : CqeOpcode::kSendComplete);
  cqe.status = static_cast<std::uint8_t>(status);
  // The ACK travels back to the sender before the CQE is DMA-written.
  fabric_->simulation().schedule_in(
      cfg.ack_delay + cfg.completion_dma,
      [cq = &target->send_cq(), cqe] { cq->produce(cqe); });
}

void Hca::dma_header(hv::Domain& domain, mem::GuestAddr addr,
                     const std::vector<std::byte>& header) {
  if (header.empty()) return;
  domain.memory().write(addr, header);
}

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
        [this, to](detail::Packet p) { hop(to, std::move(p)); });
    // A trunk is an egress port of `from` (pool and pause targets are
    // from's) and at the same time a feeder of `to` — the channel a pause
    // from `to`'s congested ports gates. That dual role is how PFC
    // congestion trees spread across the fabric.
    t->channel->configure_switch_port(switch_pool(from),
                                      switch_feeders(from));
    switch_feeders(to)->push_back(t->channel.get());
    if (fault_hook_ != nullptr) t->channel->set_fault_hook(fault_hook_);
    t->from = from;
    t->to = to;
    trunk_by_pair_.emplace(pair_key(from, to), t->channel.get());
    trunks_.push_back(std::move(t));
  }
  nexthop_.invalidate();
}

void Fabric::set_route(std::uint32_t at, std::uint32_t dst,
                       std::uint32_t via) {
  Channel* out = trunk(at, via);
  if (out == nullptr) {
    throw std::invalid_argument("Fabric::set_route: via is not trunk-adjacent");
  }
  nexthop_.set(at, dst, {via, out});
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

std::vector<std::uint32_t> Fabric::route_candidates(std::uint32_t at,
                                                    std::uint32_t dst) const {
  std::vector<std::uint32_t> vias;
  for (const auto& c : nexthop_.candidates(at, dst)) vias.push_back(c.via);
  return vias;
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

void Fabric::route_from(const Hca& src, detail::Packet pkt) {
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

void Fabric::hop(std::uint32_t sw, detail::Packet pkt) {
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
