#include "core/controller.hpp"

namespace resex::core {

ResExController::ResExController(hv::Node& node, ibmon::IbMon& ibmon,
                                 std::unique_ptr<PricingPolicy> policy,
                                 ControllerConfig config)
    : node_(&node), ibmon_(&ibmon), policy_(std::move(policy)),
      xenstat_(node), ledger_(config.resos), detector_(config.sla) {
  if (!policy_) {
    throw std::invalid_argument("ResExController: policy required");
  }
}

void ResExController::monitor(hv::Domain& domain,
                              benchex::LatencyAgent* agent, double weight,
                              std::optional<double> baseline_mean_us) {
  if (started_) {
    throw std::logic_error("ResExController::monitor: already started");
  }
  ledger_.add_vm(domain.id(), weight);
  detector_.add_vm(domain.id(), baseline_mean_us);
  Tracked t;
  t.domain = &domain;
  t.agent = agent;
  tracked_.push_back(t);
}

void ResExController::start() {
  if (started_) return;
  started_ = true;
  node_->simulation().spawn(run());
}

sim::Task ResExController::run() {
  auto& sim = node_->simulation();
  const auto per_epoch = ledger_.config().intervals_per_epoch();
  for (;;) {
    co_await sim.delay(ledger_.config().interval);
    if (intervals_ != 0 && intervals_ % per_epoch == 0) {
      ledger_.replenish();
      policy_->on_epoch_start(ledger_);
      if (epochs_metric_ == nullptr) {
        epochs_metric_ = &sim.metrics().counter("core.epochs");
      }
      epochs_metric_->add();
      RESEX_TRACE_INSTANT(
          sim.tracer(), "resex.epoch", "core",
          {"epoch",
           static_cast<double>(intervals_ / per_epoch)});
    }
    run_interval();
    ++intervals_;
  }
}

void ResExController::run_interval() {
  auto& sim = node_->simulation();
  RESEX_TRACE_SPAN(sim.tracer(), "resex.interval", "core",
                   {"vms", static_cast<double>(tracked_.size())});
  if (intervals_metric_ == nullptr) {
    intervals_metric_ = &sim.metrics().counter("core.intervals");
  }
  intervals_metric_->add();
  const auto per_epoch = ledger_.config().intervals_per_epoch();
  const double epoch_remaining =
      1.0 - static_cast<double>(intervals_ % per_epoch) /
                static_cast<double>(per_epoch);
  const double interval_ns =
      static_cast<double>(ledger_.config().interval);

  // Phase 1: gather this interval's observations for every VM.
  std::vector<VmObservation> observations;
  observations.reserve(tracked_.size());
  for (auto& t : tracked_) {
    VmObservation obs;
    obs.id = t.domain->id();
    const std::uint64_t cpu_now = xenstat_.cpu_ns(obs.id);
    obs.cpu_pct =
        static_cast<double>(cpu_now - t.prev_cpu_ns) / interval_ns * 100.0;
    t.prev_cpu_ns = cpu_now;

    const std::uint64_t mtus_now = ibmon_->stats(obs.id).send_mtus;
    if (ibmon_->stale(obs.id)) {
      // Observation gap (flapped link, stalled HCA, lapped rings going
      // quiet): the silence is *missing data*, not zero I/O. Pricing on a
      // zero would hand the congesting VM a free interval and (worse)
      // un-cap it mid-fault; hold the last healthy observation instead and
      // mark the interval degraded.
      obs.mtus = t.held_mtus;
      sim.metrics().counter("core.degraded_intervals").add();
      RESEX_TRACE_INSTANT(sim.tracer(), "resex.degraded", "core",
                          {"vm", static_cast<double>(obs.id)},
                          {"held_mtus", t.held_mtus});
    } else {
      obs.mtus = static_cast<double>(mtus_now - t.prev_mtus);
      t.held_mtus = obs.mtus;
    }
    t.prev_mtus = mtus_now;

    obs.current_cap = xenstat_.cap(obs.id);
    obs.epoch_remaining = epoch_remaining;
    if (t.agent != nullptr) {
      obs.intf_pct = detector_.observe(obs.id, t.agent->snapshot());
    }
    observations.push_back(obs);
  }

  // Phase 2: let the policy price each VM and apply its cap decisions.
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const VmObservation& obs = observations[i];
    const PolicyDecision decision =
        policy_->on_interval(obs, observations, ledger_);
    if (decision.new_cap.has_value() &&
        *decision.new_cap != obs.current_cap) {
      xenstat_.set_cap(obs.id, *decision.new_cap);
      if (cap_adjustments_metric_ == nullptr) {
        cap_adjustments_metric_ =
            &sim.metrics().counter("core.cap_adjustments");
      }
      cap_adjustments_metric_->add();
      RESEX_TRACE_INSTANT(sim.tracer(), "resex.cap", "core",
                          {"vm", static_cast<double>(obs.id)},
                          {"cap_pct", *decision.new_cap});
    }
    RESEX_TRACE_INSTANT(sim.tracer(), "resex.price", "core",
                        {"vm", static_cast<double>(obs.id)},
                        {"charge_rate", ledger_.charge_rate(obs.id)});
    TimelineRecord rec;
    rec.at = node_->simulation().now();
    rec.vm = obs.id;
    rec.resos_balance = ledger_.balance(obs.id);
    rec.cap = xenstat_.cap(obs.id);
    rec.charge_rate = ledger_.charge_rate(obs.id);
    rec.cpu_pct = obs.cpu_pct;
    rec.mtus = obs.mtus;
    rec.intf_pct = obs.intf_pct;
    rec.agent_mean_us =
        tracked_[i].agent ? tracked_[i].agent->snapshot().mean_us : 0.0;
    timeline_.push_back(rec);
  }
}

}  // namespace resex::core
