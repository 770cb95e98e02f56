#include "congestion/dcqcn.hpp"

#include <algorithm>

#include "fabric/queue_pair.hpp"

namespace resex::congestion {

namespace {
/// Period of the alpha decay timer (no-CNP periods reduce alpha).
constexpr sim::SimDuration kAlphaTimer = 55 * sim::kMicrosecond;
/// Period of the rate-increase timer (fast recovery / AI / HI stages).
constexpr sim::SimDuration kIncreasePeriod = 55 * sim::kMicrosecond;
/// Rounds of pure fast recovery (RC converges towards RT) before additive
/// increase starts raising the target rate.
constexpr std::uint32_t kFastRecoveryRounds = 5;
/// Additive-increase step R_AI, bytes/second.
constexpr double kAdditiveIncrease = 5.0 * 1024 * 1024;
/// Hyper-increase step R_HAI, bytes/second, after `kHyperAfter` further
/// CNP-free rounds.
constexpr double kHyperIncrease = 50.0 * 1024 * 1024;
constexpr std::uint32_t kHyperAfter = 10;
/// Once the current rate recovers to this fraction of line rate the cap is
/// removed entirely (deviation from DCQCN, which keeps the limiter forever:
/// removing it restores the exact uncongested arbitration fast path).
constexpr double kUncapFraction = 0.99;
}  // namespace

RateController::RateController(fabric::Fabric& fabric, DcqcnConfig config)
    : fabric_(fabric), sim_(fabric.simulation()), cfg_(config) {
  auto& metrics = sim_.metrics();
  cnps_metric_ = &metrics.counter("congestion.cnps");
  rate_cuts_metric_ = &metrics.counter("congestion.rate_cuts");
  fabric_.set_congestion_hook(this);
}

RateController::~RateController() {
  if (fabric_.congestion_hook() == this) fabric_.set_congestion_hook(nullptr);
}

double RateController::current_rate(fabric::QpNum qp) const noexcept {
  const auto it = flows_.find(qp);
  if (it == flows_.end() || !it->second.capped) return 0.0;
  return it->second.rc;
}

double RateController::line_rate(const Flow& f) const noexcept {
  // The sender's host-port rate: the natural ceiling for its flow.
  return f.qp->hca().uplink().config().link_bytes_per_sec;
}

RateController::Flow& RateController::flow_for(fabric::QueuePair& qp) {
  auto [it, inserted] = flows_.try_emplace(qp.num());
  if (inserted) it->second.qp = &qp;
  return it->second;
}

void RateController::on_marked_arrival(fabric::QueuePair& src_qp) {
  Flow& f = flow_for(src_qp);
  const sim::SimTime now = sim_.now();
  // Destination-side CNP pacing: one CNP per flow per interval, however many
  // marked packets arrive in between.
  if (f.cnp_seen && now - f.last_cnp < cfg_.cnp_interval) return;
  f.cnp_seen = true;
  f.last_cnp = now;
  ++cnps_;
  cnps_metric_->add();
  RESEX_TRACE_INSTANT(sim_.tracer(), "congestion.cnp", "congestion",
                      {"qp", static_cast<double>(src_qp.num())});
  // The CNP travels the reverse path; model it as the fabric's ack delay.
  sim_.schedule_in(fabric::FabricConfig::ack_delay,
                   [this, qp = src_qp.num()] { on_cnp(qp); });
}

void RateController::on_cnp(fabric::QpNum qp) {
  const auto it = flows_.find(qp);
  if (it == flows_.end()) return;
  Flow& f = it->second;
  if (!f.capped) {
    f.capped = true;
    f.rc = line_rate(f);
    f.alpha = 1.0;
  }
  // Multiplicative decrease: remember the pre-cut rate as the recovery
  // target, bump the congestion estimate, cut.
  f.rt = f.rc;
  f.alpha = (1.0 - cfg_.alpha_g) * f.alpha + cfg_.alpha_g;
  f.rc = std::max(cfg_.min_rate, f.rc * (1.0 - f.alpha / 2.0));
  f.increase_rounds = 0;
  f.last_cut = sim_.now();
  ++rate_cuts_;
  rate_cuts_metric_->add();
  RESEX_TRACE_INSTANT(sim_.tracer(), "congestion.rate_cut", "congestion",
                      {"qp", static_cast<double>(qp)}, {"rate", f.rc});
  apply(f);
  arm_timers(f);
}

void RateController::alpha_tick_for(fabric::QpNum qp) {
  if (const auto it = flows_.find(qp); it != flows_.end()) {
    alpha_tick(it->second);
  }
}

void RateController::increase_tick_for(fabric::QpNum qp) {
  if (const auto it = flows_.find(qp); it != flows_.end()) {
    increase_tick(it->second);
  }
}

void RateController::alpha_tick(Flow& f) {
  if (!f.capped) return;
  // A full timer period without a cut means the path stayed mark-free long
  // enough: decay the congestion estimate.
  if (sim_.now() - f.last_cut >= kAlphaTimer) {
    f.alpha *= 1.0 - cfg_.alpha_g;
  }
  f.alpha_tick = sim_.schedule_in(
      kAlphaTimer, [this, qp = f.qp->num()] { alpha_tick_for(qp); });
}

void RateController::increase_tick(Flow& f) {
  if (!f.capped) return;
  ++f.increase_rounds;
  if (f.increase_rounds > kFastRecoveryRounds) {
    const double step =
        f.increase_rounds > kFastRecoveryRounds + kHyperAfter
            ? kHyperIncrease
            : kAdditiveIncrease;
    f.rt = std::min(line_rate(f), f.rt + step);
  }
  f.rc = 0.5 * (f.rc + f.rt);
  if (f.rc >= kUncapFraction * line_rate(f)) {
    uncap(f);
    return;
  }
  apply(f);
  f.increase_tick = sim_.schedule_in(
      kIncreasePeriod,
      [this, qp = f.qp->num()] { increase_tick_for(qp); });
}

void RateController::apply(Flow& f) {
  f.qp->hca().uplink().set_flow_rate_limit(f.qp->num(), f.rc);
}

void RateController::arm_timers(Flow& f) {
  const fabric::QpNum qp = f.qp->num();
  f.alpha_tick.cancel();
  f.alpha_tick =
      sim_.schedule_in(kAlphaTimer, [this, qp] { alpha_tick_for(qp); });
  f.increase_tick.cancel();
  f.increase_tick = sim_.schedule_in(kIncreasePeriod,
                                     [this, qp] { increase_tick_for(qp); });
}

void RateController::on_qp_error(fabric::QueuePair& qp) {
  const auto it = flows_.find(qp.num());
  if (it == flows_.end()) return;
  Flow& f = it->second;
  f.alpha_tick.cancel();
  f.increase_tick.cancel();
  if (f.capped) {
    f.qp->hca().uplink().set_flow_rate_limit(f.qp->num(), 0.0);
  }
  RESEX_TRACE_INSTANT(sim_.tracer(), "congestion.qp_forget", "congestion",
                      {"qp", static_cast<double>(qp.num())});
  flows_.erase(it);
}

void RateController::uncap(Flow& f) {
  // Fully recovered: remove the limiter so arbitration returns to the exact
  // uncongested fast path, and reset the episode state.
  f.capped = false;
  f.alpha = 1.0;
  f.increase_rounds = 0;
  f.alpha_tick.cancel();
  f.increase_tick.cancel();
  f.qp->hca().uplink().set_flow_rate_limit(f.qp->num(), 0.0);
  RESEX_TRACE_INSTANT(sim_.tracer(), "congestion.uncap", "congestion",
                      {"qp", static_cast<double>(f.qp->num())});
}

}  // namespace resex::congestion
