#include "cluster/migration.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "qos/config.hpp"

namespace resex::cluster {

MigrationEngine::MigrationEngine(Cluster& cluster, MigrationConfig config)
    : cluster_(&cluster), config_(config) {
  auto& metrics = cluster_->sim().metrics();
  migrations_counter_ = &metrics.counter("cluster.migrations");
  bytes_counter_ = &metrics.counter("cluster.migration_bytes");
  pause_counter_ = &metrics.counter("cluster.migration_pause_ns");
  precopy_counter_ = &metrics.counter("cluster.precopy_rounds");
}

void MigrationEngine::migrate(benchex::Service& svc, std::uint32_t dst_node) {
  cluster_->sim().spawn(run(svc, dst_node));
}

sim::ValueTask<MigrationEngine::Link*> MigrationEngine::link_for(
    fabric::Hca& src, fabric::Hca& dst) {
  const std::uint64_t key = (std::uint64_t{src.id()} << 32) | dst.id();
  if (const auto it = links_.find(key); it != links_.end()) {
    co_return it->second.get();
  }
  auto link = std::make_unique<Link>();
  link->src_verbs = std::make_unique<fabric::Verbs>(src, src.node().dom0());
  link->dst_verbs = std::make_unique<fabric::Verbs>(dst, dst.node().dom0());
  auto& sv = *link->src_verbs;
  auto& dv = *link->dst_verbs;
  // Full split-driver control path on both dom0s: link bring-up is not free.
  link->src_pd = co_await sv.alloc_pd();
  link->dst_pd = co_await dv.alloc_pd();
  link->src_send_cq = co_await sv.create_cq(config_.link_cq_entries);
  link->src_recv_cq = co_await sv.create_cq(config_.link_cq_entries);
  link->dst_send_cq = co_await dv.create_cq(config_.link_cq_entries);
  link->dst_recv_cq = co_await dv.create_cq(config_.link_cq_entries);
  link->src_qp = co_await sv.create_qp(link->src_pd, *link->src_send_cq,
                                       *link->src_recv_cq);
  link->dst_qp = co_await dv.create_qp(link->dst_pd, *link->dst_send_cq,
                                       *link->dst_recv_cq);
  // Live-migration streams are bulk traffic: both ends of the link ride the
  // low-priority lane when qos is on (inert otherwise).
  link->src_qp->set_service_level(qos::kBulkSl);
  link->dst_qp->set_service_level(qos::kBulkSl);
  link->src_buf = src.node().dom0().allocator().allocate(config_.chunk_bytes,
                                                         mem::kPageSize);
  link->dst_buf = dst.node().dom0().allocator().allocate(config_.chunk_bytes,
                                                         mem::kPageSize);
  const auto access = mem::Access::kLocalWrite | mem::Access::kRemoteWrite |
                      mem::Access::kRemoteRead;
  link->src_mr =
      co_await sv.reg_mr(link->src_pd, link->src_buf, config_.chunk_bytes,
                         access);
  link->dst_mr =
      co_await dv.reg_mr(link->dst_pd, link->dst_buf, config_.chunk_bytes,
                         access);
  fabric::Fabric::connect(*link->src_qp, *link->dst_qp);
  Link* out = link.get();
  links_.emplace(key, std::move(link));
  co_return out;
}

sim::ValueTask<bool> MigrationEngine::transfer(Link& link,
                                               std::uint64_t bytes) {
  auto& verbs = *link.src_verbs;
  while (bytes > 0) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(bytes, config_.chunk_bytes));
    fabric::SendWr wr;
    wr.wr_id = ++wr_seq_;
    wr.opcode = fabric::Opcode::kRdmaWrite;
    wr.local_addr = link.src_buf;
    wr.lkey = link.src_mr.lkey;
    wr.length = n;
    wr.remote_addr = link.dst_buf;
    wr.rkey = link.dst_mr.rkey;
    co_await verbs.post_send(*link.src_qp, wr);
    const fabric::Cqe cqe = co_await verbs.next_cqe(*link.src_send_cq);
    if (cqe.status !=
        static_cast<std::uint8_t>(fabric::CqeStatus::kSuccess)) {
      co_return false;
    }
    stats_.bytes += n;
    bytes_counter_->add(n);
    bytes -= n;
  }
  co_return true;
}

sim::Task MigrationEngine::run(benchex::Service& svc, std::uint32_t dst_node) {
  ++active_;
  auto& sim = cluster_->sim();
  const sim::SimTime started = sim.now();

  fabric::Hca& src_hca = svc.server_hca();
  fabric::Hca& dst_hca = cluster_->hca(dst_node);
  hv::Domain& old_dom = svc.server_domain();
  auto& memory = old_dom.memory();

  RESEX_TRACE_INSTANT(sim.tracer(), "migration.start", "cluster",
                      {"src", static_cast<double>(src_hca.id())},
                      {"dst", static_cast<double>(dst_node)});

  Link* link = co_await link_for(src_hca, dst_hca);

  // --- pre-copy: iterate to convergence while the service keeps running ---
  memory.set_dirty_tracking(true);
  const std::uint64_t bytes_before = stats_.bytes;
  bool ok = co_await transfer(*link, memory.size_bytes());
  std::uint64_t pending_pages = 0;
  std::uint32_t rounds = 0;
  while (ok) {
    const auto dirty = memory.collect_dirty_pages();
    if (dirty.size() <= config_.stop_pages ||
        rounds >= config_.max_precopy_rounds) {
      pending_pages = dirty.size();
      break;
    }
    ++rounds;
    ++stats_.precopy_rounds;
    precopy_counter_->add();
    ok = co_await transfer(*link, dirty.size() * mem::kPageSize);
  }

  // --- stop-and-copy: suspend, drain, freeze, ship the rest ---------------
  const sim::SimTime blackout_start = sim.now();
  svc.suspend_client();
  // Bounded drain: in-flight responses normally land within a millisecond;
  // the deadline keeps a faulted fabric from wedging the migration forever.
  const sim::SimTime drain_deadline = sim.now() + 20 * sim::kMillisecond;
  while (svc.outstanding() > 0 && sim.now() < drain_deadline) {
    co_await sim.delay(20 * sim::kMicrosecond);
  }
  co_await sim.delay(config_.quiesce_delay);
  old_dom.vcpu().pause();
  const std::uint64_t final_pages =
      pending_pages + memory.collect_dirty_pages().size();
  if (ok) ok = co_await transfer(*link, final_pages * mem::kPageSize);
  memory.set_dirty_tracking(false);

  if (ok) {
    co_await svc.reattach_server(dst_hca);
    src_hca.node().retire_domain(old_dom.id());
  } else {
    // The migration link died (fault injection): abort and keep running at
    // the source.
    old_dom.vcpu().resume();
    ++stats_.failed;
  }
  svc.resume_client();

  const sim::SimDuration pause = sim.now() - blackout_start;
  stats_.last_pause_ns = pause;
  stats_.pause_ns_total += pause;
  pause_counter_->add(static_cast<std::uint64_t>(pause));
  if (ok) {
    ++stats_.migrations;
    migrations_counter_->add();
  }
  if (sim.tracer().enabled()) {
    sim.tracer().complete(
        "cluster.migration", "cluster", started, sim.now() - started,
        {"dst", static_cast<double>(dst_node)},
        {"mb", static_cast<double>(stats_.bytes - bytes_before) / 1e6});
  }
  --active_;
}

}  // namespace resex::cluster
