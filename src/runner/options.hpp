#pragma once
// The CLI surface shared by every runner-driven bench:
//   --jobs N     worker threads (default: hardware concurrency)
//   --seeds K    independent replicates per sweep point (default 1)
//   --seed S     override the base seed the replicate streams derive from
//   --json PATH  write the structured result document (resex.runner/v1)
//   --csv PATH   write the aggregate table as CSV
//   --trace PATH         per-trial sim-time traces (Chrome trace_event JSON)
//   --metrics-json PATH  per-trial metrics snapshots (resex.metrics/v1)
//   --metrics-period MS  also snapshot every MS ms of sim time (time series)
//   --faults SPEC        inject a fault plan into every trial (fault::FaultPlan)
//   --buf-pkts N         finite per-port switch buffers, in packets (0 = off)
//   --ecn-kmin N         ECN marking lower threshold, packets (needs --ecn-kmax)
//   --ecn-kmax N         ECN marking upper threshold; enables DCQCN rate control
//   --buf-bytes N        finite switch buffers in bytes (byte occupancy mode)
//   --pool-alpha A       shared per-switch pool: --buf-bytes becomes the pool
//                        size, ports admit alpha * free-pool bytes each
//   --pfc                PFC-style lossless pause/resume (needs finite buffers)
//   --qos                service levels / virtual lanes (2 lanes by default)
//   --sl-vl-map SPEC     SL:VL pairs, e.g. 0:0,1:1,2:1 (needs --qos)
//   --vl-weights SPEC    per-lane WRR weights, e.g. 4,1 (needs --qos)
//   --vl-hi-limit N      high-table burst before a forced low-table grant
//   --routing MODE       static | ecmp | adaptive multipath forwarding
//   --ecmp-seed S        flow-consistent hash seed (needs --routing != static)
//   --vl-shift           deadlock-free lane shifts on cyclic routes (needs --qos)
//   --coll-ranks/--coll-bytes/--coll-chunk/--coll-algo/--coll-iters
//                        collective-workload overrides (collective benches
//                        only; 0/empty = the bench's own sweep)
// Results are byte-identical for any --jobs value; only wall-clock changes.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "congestion/config.hpp"
#include "qos/config.hpp"
#include "routing/config.hpp"

namespace resex::runner {

struct RunnerOptions {
  std::size_t jobs = 0;  // 0 = auto (hardware concurrency)
  std::size_t seeds = 1;
  std::optional<std::uint64_t> seed;  // unset = keep each config's own seed
  std::string json_path;              // empty = no JSON export
  std::string csv_path;               // empty = no CSV export
  /// Base path for per-trial sim traces. Trial (point 0, replicate 0)
  /// writes exactly this path; every other trial inserts ".p<point>r<rep>"
  /// before the extension. Empty = tracing off.
  std::string trace_path;
  /// Per-trial metrics snapshots document. Empty = metrics off.
  std::string metrics_path;
  /// Periodic in-run snapshot period, milliseconds of sim time. 0 = final
  /// snapshot only. Feeds the --metrics-json time series and, when --trace
  /// is on, streams every metric into the trace as counter tracks.
  double metrics_period_ms = 0.0;
  /// Fault-plan spec applied to every trial (see fault::FaultPlan::parse).
  /// Validated at parse time; empty = whatever the bench configures (usually
  /// fault-free).
  std::string faults;
  /// Finite per-port switch buffer depth in packets applied to every trial.
  /// 0 = keep the bench's own setting (usually infinite / lossless).
  std::uint32_t buf_pkts = 0;
  /// ECN marking thresholds in packets; kmax > 0 enables marking (and the
  /// runner turns on DCQCN rate control). Requires 1 <= kmin <= kmax.
  std::uint32_t ecn_kmin = 0;
  std::uint32_t ecn_kmax = 0;
  /// Finite switch buffers in bytes (byte-based occupancy accounting).
  /// Per-port by default; with --pool-alpha it becomes the shared per-switch
  /// pool size instead. 0 = packet-denominated buffers (--buf-pkts) only.
  std::uint64_t buf_bytes = 0;
  /// Dynamic-threshold alpha for the shared per-switch pool. > 0 turns the
  /// pool on (requires --buf-bytes); 0 = per-port buffers.
  double pool_alpha = 0.0;
  /// PFC-style lossless pause/resume (requires finite buffers).
  bool pfc = false;
  /// Collective-workload overrides for benches that run resex::collective
  /// groups (bench_fig_allreduce). All default to 0/empty = keep the bench's
  /// own sweep; existing benches ignore them entirely.
  std::uint32_t coll_ranks = 0;
  std::uint64_t coll_bytes = 0;   // payload size per collective
  std::uint32_t coll_chunk = 0;   // largest single RDMA write
  std::string coll_algo;          // ring | allgather | bcast
  std::uint32_t coll_iters = 0;   // back-to-back iterations
  /// Service levels / virtual lanes (--qos, --sl-vl-map, --vl-weights,
  /// --vl-hi-limit). Defaults off: one lane, byte-identical output.
  qos::QosConfig qos{};
  /// Multipath routing / lane shifts (--routing, --ecmp-seed, --vl-shift).
  /// Defaults off: static single-path forwarding, byte-identical output.
  routing::RoutingConfig routing{};
  /// --ecmp-seed was passed explicitly (it requires a multipath mode).
  bool ecmp_seed_set = false;
  bool help = false;

  /// True when any congestion knob was set on the command line.
  [[nodiscard]] bool congestion_set() const {
    return buf_pkts > 0 || ecn_kmax > 0 || buf_bytes > 0;
  }

  /// `base` (a trial's own congestion config) with the congestion flags
  /// applied. Only meaningful when congestion_set().
  [[nodiscard]] congestion::CongestionConfig congestion_config(
      congestion::CongestionConfig base) const;

  /// True when --qos was passed (the other qos flags require it).
  [[nodiscard]] bool qos_set() const { return qos.enabled; }

  /// True when any routing knob was set on the command line.
  [[nodiscard]] bool routing_set() const { return routing.any(); }

  /// The worker count actually used: jobs, or hardware concurrency (>= 1).
  [[nodiscard]] std::size_t resolved_jobs() const;
};

/// Parse argv. Throws std::invalid_argument with a one-line message on
/// unknown flags or malformed values. Accepts both "--flag value" and
/// "--flag=value".
[[nodiscard]] RunnerOptions parse_options(int argc, const char* const* argv);

void print_usage(std::ostream& os, const std::string& prog);

}  // namespace resex::runner
