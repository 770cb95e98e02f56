#pragma once
// BenchEx (Section IV): one trading server VM and its remote client, the
// instrument behind every latency sample, on the testbed and the cluster.
//
// The server is strictly FCFS (each transaction may change the outcome of
// the next). Per-request latency decomposes as the paper's Figure 2:
//   PTime — request CQE DMA-written by the HCA -> dequeued by the server,
//   CTime — financial processing (real pricing math, simulated CPU cost),
//   WTime — response posted -> its completion observed (I/O wait);
// the in-VM agent, when attached, costs ~10 us of server CPU per report.
//
// The client runs open loop (trace arrival times; a market feed does not
// wait for the exchange) or closed loop (fixed requests in flight: the
// interference generator). Latency is coordinated-omission-free: a request
// is stamped with its *intended* arrival time, so a stall behind exhausted
// ring credits or a migration blackout lands in the samples.
//
// The server lives in "incarnations" so it can be live-migrated: a move
// builds a fresh domain + verbs context + ring on the destination (every
// control verb paying the hypercall cost there) and re-points the client's
// QP. Metrics, agent and pricing engine belong to the Service, so the
// request stream is one continuous series across moves.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchex/config.hpp"
#include "benchex/endpoint.hpp"
#include "benchex/latency_agent.hpp"
#include "finance/workload.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "trace/workload.hpp"

namespace resex::benchex {

struct ServerMetrics {
  sim::Samples ptime_us;
  sim::Samples ctime_us;
  sim::Samples wtime_us;
  sim::Samples total_us;
  std::uint64_t requests = 0;
  std::uint64_t send_errors = 0;
  double checksum = 0.0;  // accumulated pricing digests (results are real)
};

/// Client-side round trips: intended send time -> response receipt.
struct ClientMetrics {
  sim::Samples latency_us;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t errors = 0;
};

class Service {
 public:
  /// Creates the server domain on `server_hca`'s node and the client domain
  /// on `client_hca`'s node, wires the rings, but starts no traffic.
  /// `with_agent` attaches the in-VM latency reporting agent (required for
  /// the IOShares policy).
  Service(fabric::Hca& server_hca, fabric::Hca& client_hca,
          const BenchExConfig& config, std::string name,
          bool with_agent = true);

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Spawn the server loop and both client loops. Idempotent.
  void start();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] fabric::Hca& server_hca() noexcept {
    return incarnations_.back()->ep.verbs->hca();
  }
  /// Node the server currently runs on (HCA ids equal cluster node indices).
  [[nodiscard]] std::uint32_t server_node_id() noexcept {
    return server_hca().id();
  }
  [[nodiscard]] hv::Domain& server_domain() noexcept {
    return *incarnations_.back()->ep.domain;
  }
  /// The current incarnation's server QP (the one sending responses).
  [[nodiscard]] fabric::QueuePair& server_qp() noexcept {
    return *incarnations_.back()->ep.qp;
  }
  [[nodiscard]] LatencyAgent* agent() noexcept {
    return with_agent_ ? &agent_ : nullptr;
  }
  [[nodiscard]] const ServerMetrics& server_metrics() const noexcept {
    return server_metrics_;
  }
  [[nodiscard]] const ClientMetrics& client_metrics() const noexcept {
    return client_metrics_;
  }
  /// Completed moves (incarnations beyond the first).
  [[nodiscard]] std::uint32_t migrations() const noexcept {
    return static_cast<std::uint32_t>(incarnations_.size()) - 1;
  }
  [[nodiscard]] std::uint32_t outstanding() const noexcept {
    return outstanding_;
  }

  // --- migration protocol (driven by cluster::MigrationEngine) --------------

  /// Stop posting new requests. Open-loop arrivals keep accruing, so the
  /// post-resume burst carries the blackout in its latency samples.
  void suspend_client() noexcept { suspended_ = true; }
  /// Resume posting (wakes a sender blocked on the suspend gate).
  void resume_client();

  /// Stand the server up on `dst`: new domain, verbs context, CQs, QP and
  /// ring (each control verb paying the hypercall round trip on the
  /// destination), receive credits posted, client QP re-pointed, new server
  /// loop spawned. The old incarnation is kept alive but abandoned; pausing
  /// its VCPU and retiring its domain is the caller's job.
  [[nodiscard]] sim::Task reattach_server(fabric::Hca& dst);

 private:
  struct Incarnation {
    Endpoint ep;
    bool recvs_stocked = false;
  };

  [[nodiscard]] std::size_t ring_bytes() const noexcept {
    return std::size_t{config_.buffer_bytes} * config_.ring_slots;
  }
  /// Exchange ring coordinates with `server` and connect the QPs.
  void connect_client(Endpoint& server);
  [[nodiscard]] std::uint32_t queue_depth_limit() const;
  [[nodiscard]] sim::Task server_loop(Incarnation& inc);
  [[nodiscard]] sim::Task client_sender();
  [[nodiscard]] sim::Task client_receiver();
  [[nodiscard]] sim::Task send_one(sim::SimTime intended_ts);

  BenchExConfig config_;
  std::string name_;
  bool with_agent_;

  // Heap-allocated so Endpoint addresses stay stable while loops run.
  std::vector<std::unique_ptr<Incarnation>> incarnations_;
  Endpoint client_ep_;

  finance::RequestProcessor processor_;
  LatencyAgent agent_;
  ServerMetrics server_metrics_;
  ClientMetrics client_metrics_;

  trace::ArrivalProcess arrivals_;
  sim::Rng mix_rng_;
  trace::RequestMix mix_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t outstanding_ = 0;
  bool suspended_ = false;
  std::unique_ptr<sim::Trigger> gate_;  // fired per response + on resume
  bool started_ = false;
};

}  // namespace resex::benchex
