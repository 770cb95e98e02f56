#pragma once
// A virtualized physical node: PCPUs, a credit scheduler, dom0 and guests.
//
// Mirrors one of the paper's Dell PowerEdge servers: dom0 is created at
// construction on PCPU 0; each guest domain is pinned to its own PCPU by
// default ("each guest domain is assigned a VCPU each in order to minimize
// the effects of shared CPUs").

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "hv/domain.hpp"
#include "hv/scheduler.hpp"

namespace resex::hv {

struct DomainConfig {
  std::string name = "vm";
  std::size_t mem_pages = 2048;  // 8 MiB default guest address space
  double cap_pct = 100.0;
  /// PCPU to pin to; kAutoPin picks the next unused PCPU.
  static constexpr std::uint32_t kAutoPin = ~std::uint32_t{0};
  std::uint32_t pcpu = kAutoPin;
};

class Node {
 public:
  Node(sim::Simulation& sim, std::string name, std::uint32_t pcpu_count,
       SchedulerConfig sched_config = {})
      : sim_(sim), name_(std::move(name)),
        scheduler_(sim, pcpu_count, sched_config) {
    // dom0 on PCPU 0, uncapped.
    DomainConfig cfg;
    cfg.name = name_ + "/dom0";
    cfg.pcpu = 0;
    (void)create_domain_impl(cfg);
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }
  [[nodiscard]] CreditScheduler& scheduler() noexcept { return scheduler_; }

  [[nodiscard]] Domain& dom0() noexcept { return *domains_.front(); }

  /// Create a guest domain. Auto-pinning assigns the next PCPU after all
  /// already-pinned ones; throws when the node is out of PCPUs.
  Domain& create_domain(DomainConfig config) {
    if (config.pcpu == DomainConfig::kAutoPin) {
      config.pcpu = next_free_pcpu();
    }
    return create_domain_impl(config);
  }

  [[nodiscard]] Domain* find_domain(DomainId id) noexcept {
    for (auto& d : domains_) {
      if (d->id() == id) return d.get();
    }
    return nullptr;
  }

  /// All guest domains (excludes dom0 and retired domains), creation order.
  [[nodiscard]] std::vector<Domain*> guests() noexcept {
    std::vector<Domain*> out;
    for (auto& d : domains_) {
      if (!d->is_dom0() && !retired_.contains(d->id())) out.push_back(d.get());
    }
    return out;
  }

  [[nodiscard]] std::size_t domain_count() const noexcept {
    return domains_.size();
  }

  /// Retire a guest domain (migrated away): detach its VCPU from the credit
  /// scheduler — freeing its PCPU for new placements — and exclude it from
  /// guests(). The Domain object itself stays alive so HCA rings, TPT
  /// entries and foreign mappings into its memory never dangle. Idempotent.
  void retire_domain(DomainId id) {
    Domain* d = find_domain(id);
    if (d == nullptr || d->is_dom0()) {
      throw std::invalid_argument("Node::retire_domain: bad domain");
    }
    if (!retired_.insert(id).second) return;
    scheduler_.detach(d->vcpu());
  }
  [[nodiscard]] bool is_retired(DomainId id) const noexcept {
    return retired_.contains(id);
  }

  /// PCPUs with no pinned VCPU — the placement headroom the cluster broker
  /// checks before migrating a VM here.
  [[nodiscard]] std::uint32_t free_pcpu_count() const noexcept {
    std::uint32_t n = 0;
    for (std::uint32_t p = 0; p < scheduler_.pcpu_count(); ++p) {
      if (scheduler_.load_of(p) == 0) ++n;
    }
    return n;
  }

  // --- fault injection: dom0 control-path slowdowns -------------------------
  /// During [from, until) every split-driver hypercall through this node's
  /// dom0 backend takes `extra` longer (models a busy/overloaded dom0).
  /// Windows may overlap; their extras add up.
  void add_control_path_delay(sim::SimTime from, sim::SimTime until,
                              sim::SimDuration extra) {
    if (until <= from) {
      throw std::invalid_argument("Node: empty control-path delay window");
    }
    control_delays_.push_back(ControlDelay{from, until, extra});
  }

  /// Extra control-path latency in effect at `now` (0 in the common case —
  /// the vector is empty unless faults were injected).
  [[nodiscard]] sim::SimDuration control_path_extra(
      sim::SimTime now) const noexcept {
    if (control_delays_.empty()) return 0;
    sim::SimDuration extra = 0;
    for (const auto& w : control_delays_) {
      if (now >= w.from && now < w.until) extra += w.extra;
    }
    return extra;
  }

 private:
  struct ControlDelay {
    sim::SimTime from = 0;
    sim::SimTime until = 0;
    sim::SimDuration extra = 0;
  };
  Domain& create_domain_impl(const DomainConfig& config) {
    const auto id = static_cast<DomainId>(domains_.size());
    auto dom = std::make_unique<Domain>(sim_, id, config.name,
                                        config.mem_pages,
                                        scheduler_.initial_schedule());
    scheduler_.attach(dom->vcpu(), config.pcpu, config.cap_pct);
    domains_.push_back(std::move(dom));
    return *domains_.back();
  }

  [[nodiscard]] std::uint32_t next_free_pcpu() const {
    std::uint32_t candidate = 0;
    for (; candidate < scheduler_.pcpu_count(); ++candidate) {
      if (scheduler_.load_of(candidate) == 0) return candidate;
    }
    throw std::runtime_error("Node: no free PCPU to auto-pin (" + name_ +
                             ")");
  }

  sim::Simulation& sim_;
  std::string name_;
  CreditScheduler scheduler_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<ControlDelay> control_delays_;
  std::unordered_set<DomainId> retired_;
};

/// XenStat-library facade: the narrow hypervisor interface ResEx uses —
/// read per-domain CPU consumption and get/set the CPU cap.
class XenStat {
 public:
  explicit XenStat(Node& node) : node_(&node) {}

  /// Cumulative busy nanoseconds charged to the domain.
  [[nodiscard]] std::uint64_t cpu_ns(DomainId id) const {
    return domain(id).vcpu().busy_ns();
  }

  [[nodiscard]] double cap(DomainId id) const {
    return node_->scheduler().cap(domain(id).vcpu());
  }

  void set_cap(DomainId id, double cap_pct) {
    node_->scheduler().set_cap(domain(id).vcpu(), cap_pct);
  }

 private:
  [[nodiscard]] Domain& domain(DomainId id) const {
    Domain* d = node_->find_domain(id);
    if (d == nullptr) {
      throw std::out_of_range("XenStat: unknown domain id");
    }
    return *d;
  }

  Node* node_;
};

}  // namespace resex::hv
