#pragma once
// resex::collective — bulk-synchronous collective-communication workloads
// (the traffic pattern of distributed training) over the simulated fabric.
//
// A CollectiveGroup forms N ranks, one per node/domain. Each rank sets its
// endpoints up through the real split-driver control path (PD, CQs, MR, one
// QP per peer), then executes a precomputed schedule of chunked
// RDMA-write-with-immediate transfers. The schedules are deterministic:
//
//  - ring all-reduce: 2(N-1) steps — N-1 reduce-scatter steps (pass a
//    segment right, fold the incoming one into the local buffer) followed by
//    N-1 all-gather steps;
//  - recursive-doubling all-gather: log2(N) steps, partners r ^ 2^s
//    exchanging their doubling hold sets (requires power-of-two N);
//  - binomial-tree broadcast: ceil(log2 N) steps rooted at `root`.
//
// Step semantics are genuinely bulk-synchronous: a rank posts step s+1 only
// after step s's send completions AND its step-s receive arrived on its CQs,
// so one straggler, one squeezed port or one paused uplink stalls every rank
// behind it — exactly the amplification the congestion/PFC layer models.
//
// Payload values travel out-of-band (snapshotted at post time into the
// receiver's inbox, applied at receive-CQE time): the wire carries the full
// timing/backpressure behaviour of the transfers while the reduction
// arithmetic stays exact and testable.
//
// Failure semantics: the first error CQE any rank observes aborts the whole
// group — every QP transitions to the error state and has its receive queue
// flushed (Hca::flush_recv_queue), so ranks blocked on a step barrier drain
// through flush/error CQEs instead of wedging. result().ok reports success.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/verbs.hpp"
#include "hv/node.hpp"
#include "sim/simulation.hpp"

namespace resex::collective {

enum class Algorithm : std::uint8_t {
  kRingAllReduce = 0,
  kAllGather = 1,  // recursive doubling
  kBroadcast = 2,  // binomial tree
};

[[nodiscard]] const char* to_string(Algorithm a) noexcept;
/// Parse "ring" / "allgather" / "bcast". Throws std::invalid_argument.
[[nodiscard]] Algorithm parse_algorithm(const std::string& name);

struct CollectiveConfig {
  std::uint32_t ranks = 4;
  /// Payload in bytes: the full vector for ring all-reduce and broadcast,
  /// the per-rank contribution block for all-gather. Multiple of 8 (the
  /// element type is a double).
  std::uint64_t payload_bytes = std::uint64_t{1} << 20;
  /// Largest single RDMA write: a step's transfer is split into
  /// ceil(bytes / chunk_bytes) back-to-back chunked writes. Multiple of 8.
  std::uint32_t chunk_bytes = 64 * 1024;
  Algorithm algorithm = Algorithm::kRingAllReduce;
  std::uint32_t root = 0;  // broadcast source rank
  std::uint32_t iterations = 1;
};

/// Where a rank lives: the node hosting its domain and that node's HCA.
struct RankHome {
  hv::Node* node = nullptr;
  fabric::Hca* hca = nullptr;
};

struct CollectiveResult {
  static constexpr std::uint32_t kNoRank = ~std::uint32_t{0};
  bool ok = false;
  /// All ranks connected and pre-posted; step 0 begins (bandwidth
  /// measurements use [started_at, finished_at), excluding control setup).
  sim::SimTime started_at = 0;
  sim::SimTime finished_at = 0;
  std::uint32_t failed_rank = kNoRank;
  fabric::CqeStatus failure = fabric::CqeStatus::kSuccess;
};

class CollectiveGroup {
 public:
  /// Most chunks one step may post: the SQ ring holds 128 WQEs and a step
  /// waits out all of its completions before the next posts, so 64 leaves
  /// 2x headroom. Configs exceeding this throw (raise chunk_bytes).
  static constexpr std::uint32_t kMaxChunksPerStep = 64;

  /// `homes` must have exactly config.ranks entries. The group creates one
  /// guest domain per rank on its home node at start(); the group must
  /// outlive the simulation run that executes it.
  CollectiveGroup(sim::Simulation& sim, std::vector<RankHome> homes,
                  CollectiveConfig config);
  CollectiveGroup(const CollectiveGroup&) = delete;
  CollectiveGroup& operator=(const CollectiveGroup&) = delete;

  /// Spawn every rank's coroutines onto the simulation.
  void start();

  [[nodiscard]] const CollectiveConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const CollectiveResult& result() const noexcept {
    return result_;
  }

  /// Pipeline steps in one iteration of the schedule.
  [[nodiscard]] std::uint32_t steps_per_iteration() const noexcept {
    return steps_;
  }
  /// Elements in each rank's working buffer.
  [[nodiscard]] std::uint64_t buffer_elems() const noexcept {
    return buffer_elems_;
  }

  /// Rank r's working buffer: mutable until start(); after a successful run
  /// it holds the collective's output (elementwise sum for all-reduce, the
  /// concatenation for all-gather, the root's vector for broadcast).
  [[nodiscard]] std::vector<double>& rank_data(std::uint32_t r);
  /// Payload bytes rank r put on the wire (ring closed form: 2*S*(N-1)/N).
  [[nodiscard]] std::uint64_t rank_wire_bytes(std::uint32_t r) const;
  /// Global step ids rank r completed, in completion order.
  [[nodiscard]] const std::vector<std::uint32_t>& step_log(
      std::uint32_t r) const;

 private:
  struct SendOp {
    std::uint32_t peer = 0;
    std::uint64_t elem_begin = 0;
    std::uint64_t elem_count = 0;
  };
  struct RecvOp {
    std::uint32_t peer = 0;
    std::uint64_t elem_begin = 0;
    std::uint64_t elem_count = 0;
    bool reduce = false;
  };
  struct Step {
    std::optional<SendOp> send;
    std::optional<RecvOp> recv;
  };

  struct Rank {
    RankHome home{};
    hv::Domain* domain = nullptr;
    std::unique_ptr<fabric::Verbs> verbs;
    fabric::CompletionQueue* send_cq = nullptr;
    fabric::CompletionQueue* recv_cq = nullptr;
    std::uint32_t pd = 0;
    mem::RegisteredRegion mr{};
    /// Peer rank -> the QP connected to it (ordered so pair connection and
    /// teardown iterate deterministically).
    std::map<std::uint32_t, fabric::QueuePair*> qp_to;
    std::vector<double> data;
    std::vector<std::uint32_t> recv_chunks_done;  // indexed by global step
    std::unique_ptr<sim::Trigger> recv_progress;
    /// Out-of-band payload copies keyed by imm_data: the simulated write
    /// carries timing on the wire, the values ride here (snapshotted at post
    /// time — a correct sender never touches an in-flight region anyway).
    std::unordered_map<std::uint32_t, std::vector<double>> inbox;
    std::uint64_t wire_bytes = 0;
    std::vector<std::uint32_t> step_log;
  };

  void build_schedule();
  void default_fill();
  void connect_pairs();
  [[nodiscard]] std::uint32_t chunks_for(std::uint64_t elems) const noexcept;
  [[nodiscard]] std::vector<std::uint32_t> peers_of(std::uint32_t r) const;
  [[nodiscard]] std::uint64_t total_send_chunks(std::uint32_t r) const;
  [[nodiscard]] std::uint64_t total_recv_chunks(std::uint32_t r) const;
  [[nodiscard]] std::size_t mem_pages_for(std::uint32_t r) const;
  sim::Task rank_main(std::uint32_t r);
  sim::Task recv_pump(std::uint32_t r);
  void apply_recv(std::uint32_t r, std::uint32_t imm);
  void fail(std::uint32_t r, fabric::CqeStatus status);
  void finish_rank();

  sim::Simulation& sim_;
  CollectiveConfig cfg_;
  std::vector<std::vector<Step>> plans_;  // [rank][step]
  std::vector<Rank> ranks_;
  std::uint64_t chunk_elems_ = 0;
  std::uint64_t buffer_elems_ = 0;
  std::uint32_t steps_ = 0;  // per iteration
  bool started_ = false;
  bool aborted_ = false;
  bool done_ = false;
  std::uint32_t setup_done_ = 0;
  std::uint32_t ready_ = 0;
  std::uint32_t finished_ = 0;
  sim::Trigger setup_barrier_;
  sim::Trigger start_barrier_;
  CollectiveResult result_{};
  obs::Histogram* step_duration_ns_;
  obs::Counter* coll_bytes_;
  obs::Counter* coll_steps_;
};

}  // namespace resex::collective
