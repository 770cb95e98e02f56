#pragma once
// Live migration of a Service's server VM between cluster nodes.
//
// Modeled after Xen pre-copy migration, with every byte really moving over
// the simulated fabric:
//  - dom0 <-> dom0 migration links: a QP pair between the source and
//    destination control domains, lazily created per (src, dst) node pair.
//    Transfers are chunked signaled RDMA writes posted by the source dom0's
//    VCPU, so migration traffic consumes link bandwidth and arbitrates
//    against tenant QPs packet-by-packet (the interference is real).
//  - pre-copy rounds: round 0 ships the whole guest address space, then each
//    round ships the pages dirtied during the previous one (the HCA's DMA
//    writes — rings, CQEs — keep re-dirtying pages, as on real hardware).
//  - stop-and-copy: the client is suspended, in-flight requests drain, the
//    server VCPU is paused, the final dirty set is shipped, and the server
//    is re-established on the destination (Service::reattach_server).
//
// The blackout (suspend -> resume) is the latency the paper's SLA math sees;
// it is reported per migration and accumulated in MigrationStats.

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "benchex/service.hpp"
#include "cluster/topology.hpp"

namespace resex::cluster {

struct MigrationConfig {
  /// Bytes per signaled RDMA write; one chunk in flight at a time.
  std::uint32_t chunk_bytes = 256 * 1024;
  /// Pre-copy rounds after the full copy before forcing stop-and-copy.
  std::uint32_t max_precopy_rounds = 8;
  /// Stop-and-copy once a round's dirty set is at or below this many pages.
  std::size_t stop_pages = 64;
  /// Grace after the last in-flight response drains, letting the server
  /// finish its accounting and park before its VCPU is frozen.
  sim::SimDuration quiesce_delay = 200 * sim::kMicrosecond;
  std::uint32_t link_cq_entries = 1024;
};

struct MigrationStats {
  std::uint64_t migrations = 0;  // completed
  std::uint64_t failed = 0;      // aborted (migration QP died)
  std::uint64_t precopy_rounds = 0;
  std::uint64_t bytes = 0;  // pre-copy + stop-and-copy payload on the wire
  sim::SimDuration pause_ns_total = 0;
  sim::SimDuration last_pause_ns = 0;
};

class MigrationEngine {
 public:
  explicit MigrationEngine(Cluster& cluster, MigrationConfig config = {});

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  /// Start migrating `svc`'s server to `dst_node` (asynchronous; progress is
  /// visible through in_progress()/stats()). One migration at a time is the
  /// broker's job to enforce; concurrent calls are legal but share links.
  void migrate(benchex::Service& svc, std::uint32_t dst_node);

  [[nodiscard]] bool in_progress() const noexcept { return active_ > 0; }
  [[nodiscard]] const MigrationStats& stats() const noexcept { return stats_; }

 private:
  /// One dom0-to-dom0 transfer pipe. `src_*` members live on the source
  /// node's dom0, `dst_*` on the destination's; data flows src -> dst.
  struct Link {
    std::unique_ptr<fabric::Verbs> src_verbs;
    std::unique_ptr<fabric::Verbs> dst_verbs;
    std::uint32_t src_pd = 0;
    std::uint32_t dst_pd = 0;
    fabric::CompletionQueue* src_send_cq = nullptr;
    fabric::CompletionQueue* src_recv_cq = nullptr;
    fabric::CompletionQueue* dst_send_cq = nullptr;
    fabric::CompletionQueue* dst_recv_cq = nullptr;
    fabric::QueuePair* src_qp = nullptr;
    fabric::QueuePair* dst_qp = nullptr;
    mem::GuestAddr src_buf = 0;
    mem::GuestAddr dst_buf = 0;
    mem::RegisteredRegion src_mr;
    mem::RegisteredRegion dst_mr;
  };

  [[nodiscard]] sim::Task run(benchex::Service& svc, std::uint32_t dst_node);
  [[nodiscard]] sim::ValueTask<Link*> link_for(fabric::Hca& src,
                                               fabric::Hca& dst);
  /// Ship `bytes` over the link; false if the link's QP errored out.
  [[nodiscard]] sim::ValueTask<bool> transfer(Link& link, std::uint64_t bytes);

  Cluster* cluster_;
  MigrationConfig config_;
  MigrationStats stats_;
  std::uint32_t active_ = 0;
  std::uint64_t wr_seq_ = 0;
  std::unordered_map<std::uint64_t, std::unique_ptr<Link>> links_;

  obs::Counter* migrations_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* pause_counter_ = nullptr;
  obs::Counter* precopy_counter_ = nullptr;
};

}  // namespace resex::cluster
