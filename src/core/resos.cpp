#include "core/resos.hpp"

#include <algorithm>

namespace resex::core {

void ResosLedger::add_vm(hv::DomainId id, double weight) {
  if (weight <= 0.0) {
    throw std::invalid_argument("ResosLedger::add_vm: weight must be > 0");
  }
  if (accounts_.contains(id)) {
    throw std::logic_error("ResosLedger::add_vm: VM already registered");
  }
  accounts_.emplace(id, Account{weight, 0.0, 0.0, 1.0});
  recompute_allocations();
  // Fresh VMs start with a full allocation; existing VMs keep their current
  // balance (their share shrinks only at the next replenish).
  accounts_[id].balance = accounts_[id].allocation;
}

void ResosLedger::recompute_allocations() {
  double total_weight = 0.0;
  for (const auto& [id, a] : accounts_) total_weight += a.weight;
  for (auto& [id, a] : accounts_) {
    const double io_share =
        config_.io_resos_per_epoch_total * a.weight / total_weight;
    a.allocation = config_.cpu_resos_per_epoch + io_share;
  }
}

double ResosLedger::deduct(hv::DomainId id, double resos) {
  const auto it = accounts_.find(id);
  if (it == accounts_.end()) {
    throw std::out_of_range("ResosLedger::deduct: unknown VM");
  }
  if (resos < 0.0) {
    throw std::invalid_argument("ResosLedger::deduct: negative amount");
  }
  Account& a = it->second;
  a.balance = std::max(0.0, a.balance - resos * a.charge_rate);
  return a.balance;
}

void ResosLedger::replenish() {
  for (auto& [id, a] : accounts_) a.balance = a.allocation;
}

void ResosLedger::set_charge_rate(hv::DomainId id, double rate) {
  const auto it = accounts_.find(id);
  if (it == accounts_.end()) {
    throw std::out_of_range("ResosLedger::set_charge_rate: unknown VM");
  }
  if (rate < 1.0) rate = 1.0;  // never cheaper than the base price
  it->second.charge_rate = rate;
}

const ResosLedger::Account& ResosLedger::account(hv::DomainId id) const {
  const auto it = accounts_.find(id);
  if (it == accounts_.end()) {
    throw std::out_of_range("ResosLedger: unknown VM");
  }
  return it->second;
}

}  // namespace resex::core
