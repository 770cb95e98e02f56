#pragma once
// IBMon: out-of-band monitoring of VMM-bypass InfiniBand usage.
//
// Because guests talk to the HCA directly, the hypervisor never sees data-
// path I/O. IBMon (running in dom0) recovers it by mapping each guest's CQ
// rings via the foreign-mapping interface — with ring locations provided by
// the dom0 backend driver, exactly as in the paper's tool [19] — and
// periodically scanning for new CQEs using the same owner-bit protocol as
// the hardware. From the raw CQEs it derives, per domain and interval:
// completed requests, bytes, estimated application buffer size, active QP
// numbers, and the paper's charging metric "MTUs sent".
//
// Being sample-based, it undercounts when an application laps a ring between
// samples; a parity heuristic detects single-lap misses and resynchronizes,
// counting the lost lap as `entries` completions of estimated size (the
// ablation bench bench_abl_ibmon_sampling quantifies this error).

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "fabric/completion_queue.hpp"
#include "fabric/types.hpp"
#include "hv/domain.hpp"
#include "sim/simulation.hpp"

namespace resex::ibmon {

/// Accumulated I/O statistics for one monitored domain. Counters are
/// cumulative; callers diff successive snapshots per interval.
struct VmIoStats {
  std::uint64_t send_completions = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t send_mtus = 0;  // sum of ceil(byte_len / mtu) over send CQEs
  std::uint64_t recv_completions = 0;
  std::uint64_t recv_bytes = 0;
  std::uint64_t error_completions = 0;
  /// Completions estimated lost to ring overrun (sampling too slow).
  std::uint64_t missed_estimate = 0;
  /// Largest message observed — the paper's application "buffer size".
  std::uint32_t est_buffer_size = 0;
  std::set<fabric::QpNum> qpns;
};

struct IbMonConfig {
  sim::SimDuration sample_period = 100 * sim::kMicrosecond;
  std::uint32_t mtu_bytes = 1024;
  /// A domain whose rings produced nothing for this long is reported stale
  /// by `stale()` — the controller's signal to hold its last observation
  /// instead of pricing on a gap. 0 disables staleness (default).
  sim::SimDuration stale_after = 0;
  /// Charge lap losses from the HCA's per-CQ produce counter instead of the
  /// timestamp-gap extrapolation. dom0 can read the counter through the
  /// backend driver (a privileged register read the guest never sees), which
  /// makes the lost-completion *count* exact; per-completion bytes are still
  /// estimated from the consumed-CQE EWMAs. Off by default: the paper's tool
  /// only had the rings.
  bool hw_produce_counter = false;
};

class IbMon {
 public:
  IbMon(sim::Simulation& sim, IbMonConfig config = {})
      : sim_(sim), config_(config) {}

  /// Register a guest's CQ ring for monitoring. `domain` must have foreign
  /// mapping enabled (dom0 privilege); the ring geometry comes from the
  /// backend driver. Typically called once per CQ via watch_domain().
  void watch_cq(hv::Domain& domain, const fabric::CompletionQueue& cq);

  /// Convenience: watch every CQ of a domain on the given HCA-provided list.
  void watch_domain(hv::Domain& domain,
                    const std::vector<fabric::CompletionQueue*>& cqs);

  /// Spawn the periodic sampler onto the simulation.
  void start();

  /// Force one synchronous sampling pass (also used by the sampler task).
  void sample_now();

  /// Cumulative statistics for a domain (zero-initialised if unknown).
  [[nodiscard]] VmIoStats stats(hv::DomainId id) const;

  /// True when the domain's rings have produced no completions for longer
  /// than `stale_after` (and staleness is enabled). During observation gaps
  /// — link flaps, stalled HCAs — the controller should not treat the
  /// silence as "no I/O" and reprice on it.
  [[nodiscard]] bool stale(hv::DomainId id) const;

  [[nodiscard]] std::size_t watched_cq_count() const noexcept {
    return watched_.size();
  }
  [[nodiscard]] std::uint64_t samples_taken() const noexcept {
    return samples_;
  }
  [[nodiscard]] bool started() const noexcept { return started_; }

 private:
  struct WatchedCq {
    hv::DomainId domain = 0;
    const mem::GuestMemory* memory = nullptr;
    /// HCA-side handle for the hw_produce_counter register read; never used
    /// to touch the ring itself (that goes through the foreign mapping).
    const fabric::CompletionQueue* cq = nullptr;
    mem::GuestAddr base = 0;
    std::uint32_t entries = 0;
    std::uint64_t shadow = 0;   // next CQE index we expect to read
    std::uint64_t last_ts = 0;  // timestamp of the newest CQE consumed
    /// Rate estimators for lap-resync extrapolation: EWMA of the timestamp
    /// gap between consecutive consumed CQEs and of per-kind completion
    /// sizes. The send/recv consumed tallies apportion a lap's lost
    /// completions to the side this CQ actually carries — charging a lapped
    /// recv ring as send bytes would inflate the charging metric.
    double ewma_gap_ns = 0.0;
    /// Median inter-completion gap of the most recent scan that observed at
    /// least one gap. The resync charge prefers this over the EWMA: across a
    /// resynced region the EWMA is inflated by the few wide gaps that
    /// survive re-seeding, while the median of the gaps actually consumed
    /// this scan tracks the app's steady rate (ROADMAP A2).
    double median_gap_ns = 0.0;
    double ewma_send_bytes = 0.0;
    double ewma_recv_bytes = 0.0;
    std::uint64_t seen_send = 0;
    std::uint64_t seen_recv = 0;
    std::uint64_t prev_consumed_ts = 0;
    /// CQEs consumed as valid entries, ever (hw_produce_counter accounting:
    /// produced() - consumed_total is exactly the CQEs lost to overruns).
    std::uint64_t consumed_total = 0;
    /// Lost completions already charged to missed_estimate, so each scan
    /// only charges the delta.
    std::uint64_t missed_charged = 0;
  };

  void scan(WatchedCq& w);
  [[nodiscard]] fabric::Cqe read_slot(const WatchedCq& w,
                                      std::uint64_t count) const;
  static std::uint8_t owner_for(const WatchedCq& w, std::uint64_t count) {
    return static_cast<std::uint8_t>((count / w.entries) % 2 == 0 ? 1 : 0);
  }
  void account(hv::DomainId dom, const fabric::Cqe& cqe);

  sim::Simulation& sim_;
  IbMonConfig config_;
  std::vector<WatchedCq> watched_;
  std::unordered_map<hv::DomainId, VmIoStats> stats_;
  std::unordered_map<hv::DomainId, sim::SimTime> last_activity_;
  std::uint64_t samples_ = 0;
  bool started_ = false;
  // Resolved on first sample, so the gauge registers when it first counts.
  obs::Gauge* samples_metric_ = nullptr;
};

}  // namespace resex::ibmon
