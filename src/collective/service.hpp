#pragma once
// CollectiveService: rounds of a collective over a resex::cluster, with
// rank placement the cluster layer can steer.
//
// The service owns a rank -> node placement vector and runs `rounds`
// back-to-back CollectiveGroups (each one training "step" worth of
// communication). Between rounds it applies any queued migrations: the
// rank's domain on the old node is retired (freeing the PCPU) and the next
// round forms the group with fresh domains/QPs at the new placement — the
// same incarnation pattern benchex::Service uses for live migration.
//
// No broker-specific code is needed for pricing: collective phases drive
// the per-port channel counters the ClusterBroker already prices from, so
// its congestion quotes rise and fall with the communication phases.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"
#include "collective/collective.hpp"

namespace resex::collective {

struct ServiceConfig {
  CollectiveConfig collective{};
  std::uint32_t rounds = 1;
  /// Idle time between rounds (the compute phase of a training step).
  sim::SimDuration inter_round_gap = 0;
};

class CollectiveService {
 public:
  /// `placement[rank]` is the cluster node index hosting that rank. Each
  /// node needs a free PCPU per rank placed on it.
  CollectiveService(cluster::Cluster& cluster, ServiceConfig config,
                    std::vector<std::uint32_t> placement);
  CollectiveService(const CollectiveService&) = delete;
  CollectiveService& operator=(const CollectiveService&) = delete;

  void start();

  /// Queue a rank move; applied at the next round boundary (a collective in
  /// flight is never torn mid-step).
  void migrate_rank(std::uint32_t rank, std::uint32_t node);

  [[nodiscard]] std::uint32_t rounds_completed() const noexcept {
    return rounds_completed_;
  }
  [[nodiscard]] std::uint32_t migrations() const noexcept {
    return migrations_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& placement() const noexcept {
    return placement_;
  }
  [[nodiscard]] const CollectiveResult& last_result() const noexcept {
    return last_result_;
  }
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] sim::Trigger& done_trigger() noexcept { return done_trigger_; }
  /// The group of the round in flight (nullptr before the first round).
  [[nodiscard]] CollectiveGroup* current_group() noexcept {
    return group_.get();
  }

 private:
  sim::Task run();

  cluster::Cluster* cluster_;
  ServiceConfig cfg_;
  std::vector<std::uint32_t> placement_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending_migrations_;
  std::unique_ptr<CollectiveGroup> group_;
  std::uint32_t rounds_completed_ = 0;
  std::uint32_t migrations_ = 0;
  CollectiveResult last_result_{};
  bool started_ = false;
  bool done_ = false;
  sim::Trigger done_trigger_;
};

}  // namespace resex::collective
