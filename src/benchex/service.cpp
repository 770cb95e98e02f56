#include "benchex/service.hpp"

#include <algorithm>

#include "benchex/messages.hpp"
#include "obs/trace.hpp"

namespace resex::benchex {

Service::Service(fabric::Hca& server_hca, fabric::Hca& client_hca,
                 const BenchExConfig& config, std::string name,
                 bool with_agent)
    : config_(config), name_(std::move(name)), with_agent_(with_agent),
      processor_(config.seed),
      arrivals_(config.arrivals, sim::Rng::stream(config.seed, 0xC11)),
      mix_rng_(sim::Rng::stream(config.seed, 0xC12)),
      mix_(trace::RequestMix::exchange_default()),
      gate_(std::make_unique<sim::Trigger>(
          server_hca.node().simulation())) {
  hv::Domain& sdom = server_hca.node().create_domain(
      {.name = name_ + "/server", .mem_pages = config_.guest_pages()});
  hv::Domain& cdom = client_hca.node().create_domain(
      {.name = name_ + "/client", .mem_pages = config_.guest_pages()});

  auto inc = std::make_unique<Incarnation>();
  inc->ep = Endpoint{fabric::make_endpoint(server_hca, sdom, ring_bytes(),
                                           config_.cq_entries)};
  client_ep_ = Endpoint{fabric::make_endpoint(client_hca, cdom, ring_bytes(),
                                              config_.cq_entries)};
  connect_client(inc->ep);
  incarnations_.push_back(std::move(inc));
}

void Service::connect_client(Endpoint& server) {
  // Out-of-band ring exchange (real apps do this over a TCP bootstrap).
  server.peer_ring_base = client_ep_.buf;
  server.peer_rkey = client_ep_.mr.rkey;
  client_ep_.peer_ring_base = server.buf;
  client_ep_.peer_rkey = server.mr.rkey;
  fabric::Fabric::connect(*server.qp, *client_ep_.qp);
}

void Service::start() {
  if (started_) return;
  started_ = true;
  auto& sim = client_ep_.verbs->vcpu().simulation();
  sim.spawn(server_loop(*incarnations_.back()));
  sim.spawn(client_receiver());
  sim.spawn(client_sender());
}

std::uint32_t Service::queue_depth_limit() const {
  if (config_.queue_depth != 0) {
    return std::min(config_.queue_depth, config_.ring_slots);
  }
  return config_.mode == LoadMode::kClosedLoop ? 1 : config_.ring_slots;
}

void Service::resume_client() {
  if (!suspended_) return;
  suspended_ = false;
  gate_->fire();
}

sim::Task Service::server_loop(Incarnation& inc) {
  auto& verbs = *inc.ep.verbs;
  auto& sim = verbs.vcpu().simulation();

  if (!inc.recvs_stocked) {
    inc.recvs_stocked = true;
    for (std::uint32_t i = 0; i < config_.ring_slots; ++i) {
      co_await verbs.post_recv(*inc.ep.qp, fabric::RecvWr{.wr_id = i});
    }
  }

  for (;;) {
    const fabric::Cqe req_cqe = co_await verbs.next_cqe(*inc.ep.recv_cq);
    if (req_cqe.status !=
        static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
      // Flushed/errored receive (fault injection): recycle the credit.
      co_await verbs.post_recv(*inc.ep.qp,
                               fabric::RecvWr{.wr_id = req_cqe.wr_id});
      continue;
    }
    // PTime starts at the HCA's CQE DMA timestamp.
    const sim::SimTime arrived = req_cqe.timestamp_ns;
    const sim::SimTime dequeued = sim.now();
    // Replenish the receive credit immediately so back-to-back requests are
    // never RNR-dropped.
    co_await verbs.post_recv(*inc.ep.qp,
                             fabric::RecvWr{.wr_id = req_cqe.wr_id});

    const std::uint32_t slot = req_cqe.imm_data;
    const auto req = inc.ep.domain->memory().read_obj<RequestHeader>(
        inc.ep.slot_addr(slot, config_.buffer_bytes));

    // CTime: real pricing math + modelled CPU cost.
    const auto result = processor_.process(
        static_cast<finance::RequestKind>(req.kind), req.instruments);
    co_await verbs.vcpu().consume(result.cpu_cost);
    const sim::SimTime processed = sim.now();

    // WTime: response posted -> its completion observed.
    ResponseHeader resp;
    resp.seq = req.seq;
    resp.client_ts = req.client_ts;
    resp.server_done_ts = processed;
    resp.checksum = result.checksum;

    fabric::SendWr wr = inc.ep.slot_write(slot, config_.buffer_bytes);
    wr.wr_id = req.seq;
    wr.header = to_bytes(resp);
    co_await verbs.post_send(*inc.ep.qp, wr);

    const fabric::Cqe send_cqe = co_await verbs.next_cqe(*inc.ep.send_cq);
    const sim::SimTime completed = sim.now();
    if (send_cqe.status !=
        static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
      ++server_metrics_.send_errors;
      continue;
    }

    const double ptime = sim::to_us(dequeued - arrived);
    const double ctime = sim::to_us(processed - dequeued);
    const double wtime = sim::to_us(completed - processed);
    double total = ptime + ctime + wtime;

    if (with_agent_) {
      co_await verbs.vcpu().consume(config_.agent_report_cost);
      total += sim::to_us(config_.agent_report_cost);
      agent_.report(total);
    }

    ++server_metrics_.requests;
    server_metrics_.checksum += result.checksum;
    if (sim.now() >= config_.metrics_start) {
      server_metrics_.ptime_us.add(ptime);
      server_metrics_.ctime_us.add(ctime);
      server_metrics_.wtime_us.add(wtime);
      server_metrics_.total_us.add(total);
    }
  }
}

sim::Task Service::send_one(sim::SimTime intended_ts) {
  auto& verbs = *client_ep_.verbs;

  finance::RequestKind kind = config_.kind;
  std::uint32_t instruments = config_.instruments;
  if (config_.use_mix) {
    const auto draw = mix_.sample(mix_rng_);
    kind = draw.kind;
    instruments = draw.instruments;
  }

  const std::uint64_t seq = next_seq_++;
  const auto slot = static_cast<std::uint32_t>(seq % config_.ring_slots);

  RequestHeader req;
  req.seq = seq;
  req.client_ts = intended_ts;
  req.instruments = instruments;
  req.kind = static_cast<std::uint8_t>(kind);
  req.payload_len = config_.buffer_bytes;

  fabric::SendWr wr = client_ep_.slot_write(slot, config_.buffer_bytes);
  wr.wr_id = seq;
  wr.header = to_bytes(req);
  // Requests are unsignaled: the client's completion signal is the response
  // itself, so it never drains its send CQ (errors still produce CQEs).
  wr.signaled = false;

  ++outstanding_;
  ++client_metrics_.sent;
  co_await verbs.post_send(*client_ep_.qp, wr);
}

sim::Task Service::client_sender() {
  auto& sim = client_ep_.verbs->vcpu().simulation();
  const std::uint32_t depth = queue_depth_limit();

  if (config_.mode == LoadMode::kOpenLoop) {
    sim::SimTime next_at = sim.now() + arrivals_.initial_phase();
    for (;;) {
      next_at += arrivals_.next_gap();
      co_await sim.at(next_at);
      while (suspended_ || outstanding_ >= depth) co_await gate_->wait();
      co_await send_one(next_at);
    }
  } else {
    for (;;) {
      while (suspended_ || outstanding_ >= depth) co_await gate_->wait();
      if (config_.think_time > 0) co_await sim.delay(config_.think_time);
      co_await send_one(sim.now());
    }
  }
}

sim::Task Service::client_receiver() {
  auto& verbs = *client_ep_.verbs;
  auto& sim = verbs.vcpu().simulation();

  for (std::uint32_t i = 0; i < config_.ring_slots; ++i) {
    co_await verbs.post_recv(*client_ep_.qp, fabric::RecvWr{.wr_id = i});
  }

  for (;;) {
    const fabric::Cqe cqe = co_await verbs.next_cqe(*client_ep_.recv_cq);
    co_await verbs.post_recv(*client_ep_.qp,
                             fabric::RecvWr{.wr_id = cqe.wr_id});
    if (cqe.status != static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
      ++client_metrics_.errors;
      if (outstanding_ > 0) --outstanding_;
      gate_->fire();
      continue;
    }
    const auto resp = client_ep_.domain->memory().read_obj<
        ResponseHeader>(
        client_ep_.slot_addr(cqe.imm_data, config_.buffer_bytes));
    const double latency_us = sim::to_us(sim.now() - resp.client_ts);
    ++client_metrics_.received;
    if (outstanding_ > 0) --outstanding_;
    gate_->fire();
    if (sim.now() >= config_.metrics_start) {
      client_metrics_.latency_us.add(latency_us);
    }
  }
}

sim::Task Service::reattach_server(fabric::Hca& dst) {
  auto& sim = dst.node().simulation();

  auto inc = std::make_unique<Incarnation>();
  hv::Domain& dom = dst.node().create_domain(
      {.name = name_ + "/server.m" + std::to_string(incarnations_.size()),
       .mem_pages = config_.guest_pages()});
  inc->ep.domain = &dom;
  inc->ep.verbs = std::make_unique<fabric::Verbs>(dst, dom);
  auto& verbs = *inc->ep.verbs;

  // Control path on the destination: every verb pays the split-driver trip.
  inc->ep.pd = co_await verbs.alloc_pd();
  inc->ep.send_cq = co_await verbs.create_cq(config_.cq_entries);
  inc->ep.recv_cq = co_await verbs.create_cq(config_.cq_entries);
  inc->ep.qp = co_await verbs.create_qp(inc->ep.pd, *inc->ep.send_cq,
                                        *inc->ep.recv_cq);
  inc->ep.buf = dom.allocator().allocate(ring_bytes(), mem::kPageSize);
  inc->ep.mr = co_await verbs.reg_mr(
      inc->ep.pd, inc->ep.buf, ring_bytes(),
      mem::Access::kLocalWrite | mem::Access::kRemoteWrite |
          mem::Access::kRemoteRead);

  // Re-point both ends; the old server QP keeps its stale peer but never
  // transmits again.
  connect_client(inc->ep);

  inc->recvs_stocked = true;
  for (std::uint32_t i = 0; i < config_.ring_slots; ++i) {
    co_await verbs.post_recv(*inc->ep.qp, fabric::RecvWr{.wr_id = i});
  }

  RESEX_TRACE_INSTANT(sim.tracer(), "cluster.reattach", "cluster",
                      {"node", static_cast<double>(dst.id())},
                      {"qp", static_cast<double>(inc->ep.qp->num())});

  incarnations_.push_back(std::move(inc));
  sim.spawn(server_loop(*incarnations_.back()));
}

}  // namespace resex::benchex
