#pragma once
// Resos — the resource-trading currency (Section V-C / VI-A).
//
// Each epoch (1 s) every VM is granted an allocation: 100 000 Resos for its
// dedicated CPU (1 Reso per CPU-percent per 1 ms interval) plus its share of
// the link's MTU budget (1 GiB/s / 1 KiB = 1 048 576 Resos split across VMs,
// equally or by weight). Usage is deducted every interval at the VM's
// current charge rate; leftovers are discarded at the epoch boundary.

#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "hv/domain.hpp"
#include "sim/time.hpp"

namespace resex::core {

struct ResosConfig {
  sim::SimDuration epoch = sim::kSecond;
  sim::SimDuration interval = sim::kMillisecond;
  /// Per-VM CPU grant per epoch: PercentPerInterval * NumberOfIntervals.
  double cpu_resos_per_epoch = 100.0 * 1000.0;
  /// Total I/O grant per epoch, shared across VMs: LinkBW / MTUSize.
  double io_resos_per_epoch_total = 1024.0 * 1024.0;

  [[nodiscard]] std::uint64_t intervals_per_epoch() const {
    return epoch / interval;
  }
};

class ResosLedger {
 public:
  explicit ResosLedger(ResosConfig config = {}) : config_(config) {
    if (config_.interval == 0 || config_.epoch % config_.interval != 0) {
      throw std::invalid_argument(
          "ResosLedger: epoch must be a multiple of the interval");
    }
  }

  /// Register a VM with a share weight. Allocations are recomputed across
  /// all registered VMs; balances start at one full allocation.
  void add_vm(hv::DomainId id, double weight = 1.0);

  [[nodiscard]] bool tracks(hv::DomainId id) const {
    return accounts_.contains(id);
  }

  /// Deduct usage (already converted to Resos). Balance clamps at zero;
  /// returns the balance after deduction.
  double deduct(hv::DomainId id, double resos);

  /// Epoch boundary: balances reset to the allocation; leftovers discarded.
  void replenish();

  [[nodiscard]] double balance(hv::DomainId id) const {
    return account(id).balance;
  }
  [[nodiscard]] double allocation(hv::DomainId id) const {
    return account(id).allocation;
  }
  [[nodiscard]] double fraction_remaining(hv::DomainId id) const {
    const auto& a = account(id);
    return a.allocation > 0.0 ? a.balance / a.allocation : 0.0;
  }

  /// Congestion-pricing knob: multiplier applied to this VM's deductions.
  void set_charge_rate(hv::DomainId id, double rate);
  [[nodiscard]] double charge_rate(hv::DomainId id) const {
    return account(id).charge_rate;
  }

  [[nodiscard]] const ResosConfig& config() const noexcept { return config_; }

 private:
  struct Account {
    double weight = 1.0;
    double allocation = 0.0;
    double balance = 0.0;
    double charge_rate = 1.0;
  };

  [[nodiscard]] const Account& account(hv::DomainId id) const;
  void recompute_allocations();

  ResosConfig config_;
  std::unordered_map<hv::DomainId, Account> accounts_;
};

}  // namespace resex::core
