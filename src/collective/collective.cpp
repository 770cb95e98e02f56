#include "collective/collective.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>

#include "fabric/fabric.hpp"
#include "obs/trace.hpp"
#include "qos/config.hpp"

namespace resex::collective {

namespace {
constexpr std::uint32_t kImmStepShift = 16;
constexpr std::uint32_t kImmChunkMask = 0xffff;
}  // namespace

const char* to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kRingAllReduce: return "ring";
    case Algorithm::kAllGather: return "allgather";
    case Algorithm::kBroadcast: return "bcast";
  }
  return "unknown";
}

Algorithm parse_algorithm(const std::string& name) {
  if (name == "ring") return Algorithm::kRingAllReduce;
  if (name == "allgather") return Algorithm::kAllGather;
  if (name == "bcast") return Algorithm::kBroadcast;
  throw std::invalid_argument("collective: unknown algorithm '" + name +
                              "' (want ring|allgather|bcast)");
}

CollectiveGroup::CollectiveGroup(sim::Simulation& sim,
                                 std::vector<RankHome> homes,
                                 CollectiveConfig config)
    : sim_(sim), cfg_(config), setup_barrier_(sim), start_barrier_(sim),
      step_duration_ns_(&sim.metrics().histogram("coll_step_duration_ns")),
      coll_bytes_(&sim.metrics().counter("coll_bytes")),
      coll_steps_(&sim.metrics().counter("coll_steps")) {
  if (cfg_.ranks < 2) {
    throw std::invalid_argument("collective: need at least 2 ranks");
  }
  if (homes.size() != cfg_.ranks) {
    throw std::invalid_argument("collective: homes.size() != ranks");
  }
  for (const auto& h : homes) {
    if (h.node == nullptr || h.hca == nullptr) {
      throw std::invalid_argument("collective: null rank home");
    }
  }
  if (cfg_.payload_bytes == 0 || cfg_.payload_bytes % sizeof(double) != 0) {
    throw std::invalid_argument(
        "collective: payload_bytes must be a positive multiple of 8");
  }
  if (cfg_.chunk_bytes < sizeof(double) ||
      cfg_.chunk_bytes % sizeof(double) != 0) {
    throw std::invalid_argument(
        "collective: chunk_bytes must be a multiple of 8 (>= 8)");
  }
  if (cfg_.iterations == 0) {
    throw std::invalid_argument("collective: iterations must be >= 1");
  }
  if (cfg_.root >= cfg_.ranks) {
    throw std::invalid_argument("collective: root out of range");
  }
  chunk_elems_ = cfg_.chunk_bytes / sizeof(double);
  build_schedule();
  // The immediate encodes (global step, chunk) in 16 bits each.
  const std::uint64_t total_steps = std::uint64_t{cfg_.iterations} * steps_;
  if (total_steps > kImmChunkMask) {
    throw std::invalid_argument(
        "collective: iterations * steps exceeds the 16-bit step id space");
  }
  for (const auto& plan : plans_) {
    for (const auto& step : plan) {
      const std::uint64_t biggest =
          std::max(step.send ? step.send->elem_count : 0,
                   step.recv ? step.recv->elem_count : 0);
      if (chunks_for(biggest) > kMaxChunksPerStep) {
        throw std::invalid_argument(
            "collective: a step needs more than 64 chunks; raise "
            "chunk_bytes");
      }
    }
  }
  ranks_.resize(cfg_.ranks);
  for (std::uint32_t r = 0; r < cfg_.ranks; ++r) {
    ranks_[r].home = homes[r];
    ranks_[r].recv_chunks_done.assign(total_steps, 0);
    ranks_[r].recv_progress = std::make_unique<sim::Trigger>(sim_);
  }
  default_fill();
}

void CollectiveGroup::build_schedule() {
  const std::uint32_t n = cfg_.ranks;
  const std::uint64_t elems = cfg_.payload_bytes / sizeof(double);
  plans_.assign(n, {});
  switch (cfg_.algorithm) {
    case Algorithm::kRingAllReduce: {
      if (elems < n) {
        throw std::invalid_argument(
            "collective: ring all-reduce needs at least one element per "
            "rank segment");
      }
      buffer_elems_ = elems;
      steps_ = 2 * (n - 1);
      const auto seg_begin = [&](std::uint32_t j) {
        return std::uint64_t{j} * elems / n;
      };
      const auto seg = [&](std::uint32_t j) {
        j %= n;
        return std::pair<std::uint64_t, std::uint64_t>{
            seg_begin(j), seg_begin(j + 1) - seg_begin(j)};
      };
      for (std::uint32_t r = 0; r < n; ++r) {
        auto& plan = plans_[r];
        plan.resize(steps_);
        const std::uint32_t right = (r + 1) % n;
        const std::uint32_t left = (r + n - 1) % n;
        for (std::uint32_t s = 0; s + 1 < n; ++s) {
          // Reduce-scatter: pass segment (r - s) right, fold the incoming
          // segment (r - s - 1) into the local buffer.
          const auto [sb, sc] = seg(r + n - s);
          const auto [rb, rc] = seg(r + 2 * n - s - 1);
          plan[s].send = SendOp{right, sb, sc};
          plan[s].recv = RecvOp{left, rb, rc, /*reduce=*/true};
          // All-gather: circulate the completed segments. After the
          // reduce-scatter, rank r owns the fully reduced segment (r + 1).
          const auto [gb, gc] = seg(r + 1 + n - s);
          const auto [hb, hc] = seg(r + n - s);
          plan[n - 1 + s].send = SendOp{right, gb, gc};
          plan[n - 1 + s].recv = RecvOp{left, hb, hc, /*reduce=*/false};
        }
      }
      break;
    }
    case Algorithm::kAllGather: {
      if (!std::has_single_bit(n)) {
        throw std::invalid_argument(
            "collective: recursive-doubling all-gather needs a power-of-two "
            "rank count");
      }
      const std::uint64_t block = elems;
      buffer_elems_ = std::uint64_t{n} * block;
      steps_ = static_cast<std::uint32_t>(std::bit_width(n) - 1);
      for (std::uint32_t r = 0; r < n; ++r) {
        auto& plan = plans_[r];
        plan.resize(steps_);
        for (std::uint32_t s = 0; s < steps_; ++s) {
          const std::uint32_t half = 1u << s;
          const std::uint32_t partner = r ^ half;
          // Blocks held entering step s: [base, base + half).
          const std::uint32_t base = r & ~(half - 1);
          plan[s].send = SendOp{partner, std::uint64_t{base} * block,
                                std::uint64_t{half} * block};
          plan[s].recv =
              RecvOp{partner, std::uint64_t{base ^ half} * block,
                     std::uint64_t{half} * block, /*reduce=*/false};
        }
      }
      break;
    }
    case Algorithm::kBroadcast: {
      buffer_elems_ = elems;
      steps_ = 0;
      while ((std::uint64_t{1} << steps_) < n) ++steps_;
      for (std::uint32_t r = 0; r < n; ++r) {
        auto& plan = plans_[r];
        plan.resize(steps_);
        // Virtual rank: the tree is rooted at `root`.
        const std::uint32_t vr = (r + n - cfg_.root) % n;
        for (std::uint32_t s = 0; s < steps_; ++s) {
          const std::uint32_t bit = 1u << s;
          if (vr < bit && vr + bit < n) {
            plan[s].send =
                SendOp{(vr + bit + cfg_.root) % n, 0, elems};
          }
          if (vr >= bit && vr < 2 * bit) {
            plan[s].recv = RecvOp{(vr - bit + cfg_.root) % n, 0, elems,
                                  /*reduce=*/false};
          }
        }
      }
      break;
    }
  }
}

void CollectiveGroup::default_fill() {
  const std::uint32_t n = cfg_.ranks;
  const std::uint64_t block = cfg_.payload_bytes / sizeof(double);
  for (std::uint32_t r = 0; r < n; ++r) {
    auto& d = ranks_[r].data;
    d.assign(buffer_elems_, 0.0);
    switch (cfg_.algorithm) {
      case Algorithm::kRingAllReduce:
        std::fill(d.begin(), d.end(), static_cast<double>(r + 1));
        break;
      case Algorithm::kAllGather:
        std::fill(d.begin() + static_cast<std::ptrdiff_t>(r * block),
                  d.begin() + static_cast<std::ptrdiff_t>((r + 1) * block),
                  static_cast<double>(r + 1));
        break;
      case Algorithm::kBroadcast:
        if (r == cfg_.root) {
          for (std::uint64_t i = 0; i < d.size(); ++i) {
            d[i] = static_cast<double>((i % 255) + 1);
          }
        }
        break;
    }
  }
}

std::uint32_t CollectiveGroup::chunks_for(std::uint64_t elems) const noexcept {
  if (elems == 0) return 0;
  return static_cast<std::uint32_t>((elems + chunk_elems_ - 1) /
                                    chunk_elems_);
}

std::vector<std::uint32_t> CollectiveGroup::peers_of(std::uint32_t r) const {
  std::set<std::uint32_t> peers;
  for (const auto& step : plans_[r]) {
    if (step.send) peers.insert(step.send->peer);
    if (step.recv) peers.insert(step.recv->peer);
  }
  return {peers.begin(), peers.end()};
}

std::uint64_t CollectiveGroup::total_send_chunks(std::uint32_t r) const {
  std::uint64_t total = 0;
  for (const auto& step : plans_[r]) {
    if (step.send) total += chunks_for(step.send->elem_count);
  }
  return total * cfg_.iterations;
}

std::uint64_t CollectiveGroup::total_recv_chunks(std::uint32_t r) const {
  std::uint64_t total = 0;
  for (const auto& step : plans_[r]) {
    if (step.recv) total += chunks_for(step.recv->elem_count);
  }
  return total * cfg_.iterations;
}

std::size_t CollectiveGroup::mem_pages_for(std::uint32_t r) const {
  // Data buffer + CQ rings + per-QP SQ ring (128 x 256 B) and UAR page,
  // rounded up with slack for page-granular carving.
  std::size_t bytes = buffer_elems_ * sizeof(double);
  bytes += (total_send_chunks(r) + total_recv_chunks(r) + 64) * 32;
  bytes += peers_of(r).size() * (128 * 256 + mem::kPageSize);
  bytes += 16 * mem::kPageSize;
  return bytes / mem::kPageSize + 16;
}

std::vector<double>& CollectiveGroup::rank_data(std::uint32_t r) {
  return ranks_.at(r).data;
}

std::uint64_t CollectiveGroup::rank_wire_bytes(std::uint32_t r) const {
  return ranks_.at(r).wire_bytes;
}

const std::vector<std::uint32_t>& CollectiveGroup::step_log(
    std::uint32_t r) const {
  return ranks_.at(r).step_log;
}

void CollectiveGroup::start() {
  if (started_) {
    throw std::logic_error("collective: group already started");
  }
  started_ = true;
  for (std::uint32_t r = 0; r < cfg_.ranks; ++r) {
    sim_.spawn(rank_main(r));
  }
}

void CollectiveGroup::connect_pairs() {
  for (std::uint32_t r = 0; r < cfg_.ranks; ++r) {
    for (const auto& [peer, qp] : ranks_[r].qp_to) {
      if (peer < r) continue;  // each unordered pair exactly once
      fabric::Fabric::connect(*qp, *ranks_[peer].qp_to.at(r));
    }
  }
}

void CollectiveGroup::fail(std::uint32_t r, fabric::CqeStatus status) {
  if (aborted_) return;
  aborted_ = true;
  result_.failed_rank = r;
  result_.failure = status;
  RESEX_TRACE_INSTANT(sim_.tracer(), "coll.abort", "collective",
                      {"rank", static_cast<double>(r)},
                      {"status", static_cast<double>(
                                     static_cast<std::uint8_t>(status))});
  // Tear every QP of the group down: posted receives flush with error CQEs
  // and in-flight messages complete with kRemoteOperationError, so no rank
  // can wedge on a step barrier waiting for traffic that cannot arrive.
  for (auto& rk : ranks_) {
    for (const auto& [peer, qp] : rk.qp_to) {
      qp->set_error();
      qp->hca().flush_recv_queue(*qp);
    }
  }
  for (auto& rk : ranks_) rk.recv_progress->fire();
}

void CollectiveGroup::finish_rank() {
  if (++finished_ < cfg_.ranks) return;
  result_.ok = !aborted_;
  result_.finished_at = sim_.now();
  done_ = true;
}

void CollectiveGroup::apply_recv(std::uint32_t r, std::uint32_t imm) {
  Rank& rk = ranks_[r];
  auto node = rk.inbox.extract(imm);
  if (node.empty()) {
    throw std::logic_error("collective: receive completion without payload");
  }
  const std::uint32_t g = imm >> kImmStepShift;
  const std::uint32_t s = g % steps_;
  const RecvOp& op = *plans_[r][s].recv;
  const std::uint64_t cbegin =
      op.elem_begin + std::uint64_t{imm & kImmChunkMask} * chunk_elems_;
  const auto& vals = node.mapped();
  if (op.reduce) {
    for (std::size_t i = 0; i < vals.size(); ++i) {
      rk.data[cbegin + i] += vals[i];
    }
  } else {
    std::copy(vals.begin(), vals.end(),
              rk.data.begin() + static_cast<std::ptrdiff_t>(cbegin));
  }
}

sim::Task CollectiveGroup::recv_pump(std::uint32_t r) {
  Rank& rk = ranks_[r];
  const std::uint64_t total = total_recv_chunks(r);
  std::uint64_t consumed = 0;
  while (consumed < total && !aborted_) {
    const fabric::Cqe cqe = co_await rk.verbs->next_cqe(*rk.recv_cq);
    ++consumed;
    if (cqe.status !=
        static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
      fail(r, static_cast<fabric::CqeStatus>(cqe.status));
      break;
    }
    apply_recv(r, cqe.imm_data);
    const std::uint32_t g = cqe.imm_data >> kImmStepShift;
    ++rk.recv_chunks_done[g];
    rk.recv_progress->fire();
  }
}

sim::Task CollectiveGroup::rank_main(std::uint32_t r) {
  Rank& rk = ranks_[r];

  // --- control-path setup: domain, PD, CQs, MR, one QP per peer ----------
  hv::DomainConfig dc;
  dc.name = "coll_r" + std::to_string(r);
  dc.mem_pages = mem_pages_for(r);
  rk.domain = &rk.home.node->create_domain(dc);
  rk.verbs = std::make_unique<fabric::Verbs>(*rk.home.hca, *rk.domain);
  fabric::Verbs& verbs = *rk.verbs;
  rk.pd = co_await verbs.alloc_pd();
  // CQ rings sized for every CQE a run can produce (including flushes on an
  // abort, when nobody drains the queues any more): one per posted WR.
  const auto cq_entries = [](std::uint64_t total) {
    return static_cast<std::uint32_t>(std::max<std::uint64_t>(16, total + 8));
  };
  rk.send_cq = co_await verbs.create_cq(cq_entries(total_send_chunks(r)));
  rk.recv_cq = co_await verbs.create_cq(cq_entries(total_recv_chunks(r)));
  const std::uint64_t buf_bytes = buffer_elems_ * sizeof(double);
  const mem::GuestAddr buf =
      rk.domain->allocator().allocate(buf_bytes, mem::kPageSize);
  rk.mr = co_await verbs.reg_mr(
      rk.pd, buf, buf_bytes,
      mem::Access::kLocalWrite | mem::Access::kRemoteWrite);
  for (const std::uint32_t peer : peers_of(r)) {
    rk.qp_to[peer] = co_await verbs.create_qp(rk.pd, *rk.send_cq, *rk.recv_cq);
    // Collective streams are the bulk class: with qos on they ride the
    // low-priority lane so tenant RPC traffic never queues behind a ring
    // step. Inert (SL is unused) while qos is off.
    rk.qp_to[peer]->set_service_level(qos::kBulkSl);
  }
  if (++setup_done_ == cfg_.ranks) {
    connect_pairs();
    setup_barrier_.fire();
  } else {
    co_await setup_barrier_.wait();
  }

  // Pre-post every receive of the whole run: incoming writes always find a
  // receive WQE (no RNR stalls in the steady state) and an abort can flush
  // them all.
  for (std::uint32_t iter = 0; iter < cfg_.iterations; ++iter) {
    for (std::uint32_t s = 0; s < steps_; ++s) {
      if (!plans_[r][s].recv) continue;
      const RecvOp& op = *plans_[r][s].recv;
      const std::uint32_t g = iter * steps_ + s;
      const std::uint32_t nchunks = chunks_for(op.elem_count);
      for (std::uint32_t c = 0; c < nchunks; ++c) {
        co_await verbs.post_recv(
            *rk.qp_to.at(op.peer),
            fabric::RecvWr{.wr_id = (std::uint64_t{g} << kImmStepShift) | c});
      }
    }
  }
  sim_.spawn(recv_pump(r));
  if (++ready_ == cfg_.ranks) {
    result_.started_at = sim_.now();
    start_barrier_.fire();
  } else {
    co_await start_barrier_.wait();
  }

  // --- bulk-synchronous step loop ----------------------------------------
  for (std::uint32_t iter = 0; iter < cfg_.iterations && !aborted_; ++iter) {
    for (std::uint32_t s = 0; s < steps_ && !aborted_; ++s) {
      const Step& step = plans_[r][s];
      if (!step.send && !step.recv) continue;
      const std::uint32_t g = iter * steps_ + s;
      const sim::SimTime step_start = sim_.now();
      std::uint32_t posted = 0;
      if (step.send) {
        const SendOp& op = *step.send;
        Rank& dst = ranks_[op.peer];
        fabric::QueuePair& qp = *rk.qp_to.at(op.peer);
        const std::uint32_t nchunks = chunks_for(op.elem_count);
        for (std::uint32_t c = 0; c < nchunks && !aborted_; ++c) {
          const std::uint64_t cbegin =
              op.elem_begin + std::uint64_t{c} * chunk_elems_;
          const std::uint64_t ccount = std::min<std::uint64_t>(
              chunk_elems_, op.elem_begin + op.elem_count - cbegin);
          const std::uint32_t imm = (g << kImmStepShift) | c;
          dst.inbox.emplace(
              imm, std::vector<double>(
                       rk.data.begin() + static_cast<std::ptrdiff_t>(cbegin),
                       rk.data.begin() +
                           static_cast<std::ptrdiff_t>(cbegin + ccount)));
          fabric::SendWr wr;
          wr.wr_id = imm;
          wr.opcode = fabric::Opcode::kRdmaWriteWithImm;
          wr.local_addr = rk.mr.addr + cbegin * sizeof(double);
          wr.lkey = rk.mr.lkey;
          wr.length = static_cast<std::uint32_t>(ccount * sizeof(double));
          wr.remote_addr = dst.mr.addr + cbegin * sizeof(double);
          wr.rkey = dst.mr.rkey;
          wr.imm_data = imm;
          co_await verbs.post_send(qp, std::move(wr));
          rk.wire_bytes += ccount * sizeof(double);
          coll_bytes_->add(ccount * sizeof(double));
          ++posted;
        }
      }
      // Step barrier, half 1: every send of this step acknowledged. Drain
      // all posted completions even past a failure — each post produces
      // exactly one CQE (success, error or flush), so the count is exact.
      for (std::uint32_t i = 0; i < posted; ++i) {
        const fabric::Cqe cqe = co_await verbs.next_cqe(*rk.send_cq);
        if (cqe.status !=
            static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
          fail(r, static_cast<fabric::CqeStatus>(cqe.status));
        }
      }
      // Half 2: this step's receive fully arrived (the pump applies the
      // payload and fires on each chunk).
      if (step.recv) {
        const std::uint32_t expect = chunks_for(step.recv->elem_count);
        while (!aborted_ && rk.recv_chunks_done[g] < expect) {
          co_await rk.recv_progress->wait();
        }
      }
      if (aborted_) break;
      const sim::SimDuration dur = sim_.now() - step_start;
      step_duration_ns_->observe(static_cast<std::uint64_t>(dur));
      coll_steps_->add();
      if (sim_.tracer().enabled()) {
        sim_.tracer().complete("coll.step", "collective", step_start, dur,
                               {"rank", static_cast<double>(r)},
                               {"step", static_cast<double>(g)});
      }
      rk.step_log.push_back(g);
    }
  }
  finish_rank();
}

}  // namespace resex::collective
