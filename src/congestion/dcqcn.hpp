#pragma once
// DCQCN-style end-to-end rate control for the simulated fabric.
//
// The controller implements fabric::CongestionHook: the destination HCA
// reports every ECN-marked data arrival, the controller paces that feedback
// into CNPs (one per flow per cnp_interval), and each CNP — after the
// reverse-path delay — cuts the sender's rate multiplicatively via the
// uplink's per-QP token-bucket limiter. Two per-flow timers then recover the
// rate: fast recovery converges the current rate towards the target, and
// additive/hyper increase raise the target once the path stays mark-free.
// Buffer overflows are not the controller's job: tail-dropped packets fall
// back to the RC transport's NAK/RTO machinery.
//
// Deviations from DCQCN proper are documented in DESIGN.md (notably: rates
// act on the *uplink* token bucket rather than inter-packet gaps, CNPs are
// modelled as a fixed reverse-path delay instead of wire packets, and a
// fully recovered flow drops its limiter entirely so the uncongested fast
// path is restored exactly).

#include <cstdint>
#include <unordered_map>

#include "congestion/config.hpp"
#include "fabric/congestion_hook.hpp"
#include "fabric/fabric.hpp"
#include "sim/simulation.hpp"

namespace resex::congestion {

class RateController final : public fabric::CongestionHook {
 public:
  /// Installs itself as the fabric's congestion hook.
  explicit RateController(fabric::Fabric& fabric, DcqcnConfig config = {});
  ~RateController() override;

  RateController(const RateController&) = delete;
  RateController& operator=(const RateController&) = delete;

  void on_marked_arrival(fabric::QueuePair& src_qp) override;
  /// Fatal QP error: cancel the flow's timers, clear its uplink limiter and
  /// erase its state — pending timer callbacks re-look the flow up by QpNum
  /// and become no-ops once it is gone.
  void on_qp_error(fabric::QueuePair& qp) override;

  /// CNPs actually generated (post-pacing).
  [[nodiscard]] std::uint64_t cnps() const noexcept { return cnps_; }
  /// Multiplicative rate decreases applied at senders.
  [[nodiscard]] std::uint64_t rate_cuts() const noexcept { return rate_cuts_; }
  /// The rate cap currently applied to a QP, bytes/second (0 = uncapped).
  [[nodiscard]] double current_rate(fabric::QpNum qp) const noexcept;

 private:
  struct Flow {
    fabric::QueuePair* qp = nullptr;
    bool capped = false;
    double rc = 0.0;     // current rate, bytes/s
    double rt = 0.0;     // target rate, bytes/s
    double alpha = 1.0;  // congestion estimate
    std::uint32_t increase_rounds = 0;
    sim::SimTime last_cnp = 0;
    bool cnp_seen = false;
    sim::SimTime last_cut = 0;
    sim::EventHandle alpha_tick;
    sim::EventHandle increase_tick;
  };

  Flow& flow_for(fabric::QueuePair& qp);
  void on_cnp(fabric::QpNum qp);
  void alpha_tick(Flow& f);
  void increase_tick(Flow& f);
  // Timer trampolines: timers are keyed by QpNum and re-look the flow up at
  // fire time, so erasing a flow (QP teardown) can never leave a timer
  // holding a dangling Flow reference.
  void alpha_tick_for(fabric::QpNum qp);
  void increase_tick_for(fabric::QpNum qp);
  /// Push the flow's current cap into its sender-uplink token bucket.
  void apply(Flow& f);
  void arm_timers(Flow& f);
  void uncap(Flow& f);
  [[nodiscard]] double line_rate(const Flow& f) const noexcept;

  fabric::Fabric& fabric_;
  sim::Simulation& sim_;
  DcqcnConfig cfg_;
  std::unordered_map<fabric::QpNum, Flow> flows_;
  std::uint64_t cnps_ = 0;
  std::uint64_t rate_cuts_ = 0;
  obs::Counter* cnps_metric_;
  obs::Counter* rate_cuts_metric_;
};

}  // namespace resex::congestion
