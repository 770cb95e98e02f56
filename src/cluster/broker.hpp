#pragma once
// Price-driven placement: the cluster-level ResEx broker.
//
// Every period the broker refreshes each node's NodePriceQuote on the
// ClusterExchange (host-port busy fraction as the I/O price, PCPU occupancy
// as the CPU price) and checks its managed latency-sensitive services
// against their calibrated baselines — the same agent-mean-vs-baseline
// signal the paper's node-local interference detector uses (Section VI-C),
// raised to cluster scope. When a service's latency inflates past the SLA
// threshold and some other node sells the resources materially cheaper, the
// broker buys: it live-migrates the server VM there. One migration at a
// time, deterministic candidate order, per-service cooldown.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "benchex/service.hpp"
#include "cluster/migration.hpp"
#include "cluster/topology.hpp"
#include "core/cluster_exchange.hpp"

namespace resex::cluster {

struct BrokerConfig {
  sim::SimDuration period = 10 * sim::kMillisecond;
  /// Trigger when agent mean exceeds baseline by this percentage (the
  /// paper's Section VII SLA threshold).
  double sla_threshold_pct = 15.0;
  /// The destination's blended price must undercut the source's by at least
  /// this much, or the move is not worth its blackout.
  double min_price_advantage = 0.05;
  /// No re-migration of the same service within this window.
  sim::SimDuration cooldown = 100 * sim::kMillisecond;
  std::uint32_t max_migrations = ~std::uint32_t{0};
  /// Agent reports required before the signal is trusted.
  std::uint64_t min_reports = 32;
};

class ClusterBroker {
 public:
  ClusterBroker(Cluster& cluster, core::ClusterExchange& exchange,
                MigrationEngine& engine, BrokerConfig config = {});

  ClusterBroker(const ClusterBroker&) = delete;
  ClusterBroker& operator=(const ClusterBroker&) = delete;

  /// Watch a service; `baseline_us` is its uncontended mean service latency
  /// (from a calibration run), the denominator of the SLA signal.
  void manage(benchex::Service& svc, double baseline_us);

  /// Spawn the periodic quote/decide loop. Idempotent.
  void start();

  [[nodiscard]] std::uint32_t migrations_requested() const noexcept {
    return requested_;
  }
  [[nodiscard]] core::ClusterExchange& exchange() noexcept {
    return *exchange_;
  }

 private:
  struct Managed {
    benchex::Service* svc = nullptr;
    double baseline_us = 0.0;
    std::optional<sim::SimTime> last_migration;
  };
  struct PortSnapshot {
    sim::SimDuration up = 0;
    sim::SimDuration down = 0;
    // Downlink congestion counters at the last quote (delta = this period).
    std::uint64_t down_pkts = 0;
    std::uint64_t down_marks = 0;
    std::uint64_t down_drops = 0;
    // Uplink per-lane paused time at the last quote (qos runs only): the
    // delta over the period is how long each class of this node's egress was
    // XOFF'd — the per-class congestion signal qos_price is built from.
    std::array<sim::SimDuration, 4> up_vl_paused{};
  };
  struct TrunkSnapshot {
    std::uint64_t pkts = 0;
    std::uint64_t marks = 0;
    std::uint64_t drops = 0;
  };

  [[nodiscard]] sim::Task run();
  void post_quotes();
  void decide();
  /// Congestion price of one port over the period: mark+drop fraction of
  /// offered packets, or current buffer occupancy fraction, whichever is
  /// worse, clamped to [0, 1].
  [[nodiscard]] static double port_congestion(const fabric::Channel& ch,
                                              std::uint64_t d_pkts,
                                              std::uint64_t d_marks,
                                              std::uint64_t d_drops);

  Cluster* cluster_;
  core::ClusterExchange* exchange_;
  MigrationEngine* engine_;
  BrokerConfig config_;
  std::vector<Managed> services_;  // registration order (deterministic scan)
  std::vector<PortSnapshot> prev_;
  std::vector<TrunkSnapshot> trunk_prev_;  // enumeration order (deterministic)
  std::uint32_t requested_ = 0;
  bool started_ = false;
};

}  // namespace resex::cluster
