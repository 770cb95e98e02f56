#pragma once
// FaultPlan: a declarative, fully deterministic description of the faults to
// inject into one scenario run. Plans are value types — parse one from a CLI
// spec string (`--faults`), or build one programmatically — and hand it to a
// FaultInjector, which arms it against a fabric.
//
// Spec grammar (comma-separated directives, times are milliseconds, floats):
//
//   drop=P                 drop each packet with probability P (0 <= P < 1)
//   corrupt=P              corrupt each packet with probability P
//   flap=AT:DUR[:CHAN]     link down for DUR starting at AT; CHAN matches
//                          the channel name: with `*`/`?` it is a glob over
//                          the full name ("n*/up" hits every node's uplink,
//                          "sw0->sw?" the trunks out of switch 0), otherwise
//                          a plain substring ("A/up", "/down", ...);
//                          empty/omitted = every channel
//   stall=AT:DUR[:HCA]     HCA WQE-fetch pipeline stalled for DUR starting
//                          at AT; HCA is the adapter index, omitted = all
//   ctl=AT:DUR:EXTRA_US    dom0 control-path hypercalls take EXTRA_US µs
//                          longer during [AT, AT+DUR)
//   squeeze=AT:DUR:PKTS[:CHAN]  switch-port buffers shrink to PKTS packets
//                          for DUR starting at AT (tail-dropping overflow) —
//                          transient shared-buffer pressure as an injectable
//                          congestion fault; CHAN matches like flap's
//
// Example: "drop=0.01,flap=300:150:A/up,ctl=0:1000:500"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace resex::fault {

/// One scripted link outage: every packet transmitted on a matching channel
/// during [at, at + duration) is dropped.
struct LinkFlap {
  sim::SimTime at = 0;
  sim::SimDuration duration = 0;
  /// Matched against Channel::name(): glob over the full name when it
  /// contains `*` or `?`, substring otherwise; empty matches all channels.
  std::string channel;
};

/// Channel-name matching used by LinkFlap (exposed for tests): `pattern`
/// containing `*` (any run, including empty) or `?` (any one character) is
/// globbed against the whole name; any other non-empty pattern matches as a
/// substring; an empty pattern matches everything.
[[nodiscard]] bool matches_channel(std::string_view pattern,
                                   std::string_view name);

/// One scripted HCA pipeline stall: doorbells rung during the window are not
/// picked up before it ends (WQE fetch is frozen; the wire keeps moving).
struct HcaStall {
  sim::SimTime at = 0;
  sim::SimDuration duration = 0;
  /// HCA index on the fabric; negative matches every adapter.
  std::int32_t hca = -1;
};

/// One dom0 control-path slowdown window (split-driver hypercalls only; the
/// VMM-bypass data path is untouched — exactly the asymmetry the paper
/// exploits).
struct ControlDelay {
  sim::SimTime at = 0;
  sim::SimDuration duration = 0;
  sim::SimDuration extra = 0;
};

/// One scripted buffer squeeze: during [at, at + duration) every matching
/// switch-port channel enforces a `pkts`-packet egress buffer, tail-dropping
/// the overflow. Models transient shared-buffer pressure (traffic outside
/// the simulated world) as a congestion fault; the RC transport recovers the
/// dropped packets.
struct BufferSqueeze {
  sim::SimTime at = 0;
  sim::SimDuration duration = 0;
  std::uint32_t pkts = 0;
  /// Matched against Channel::name() like LinkFlap::channel.
  std::string channel;
};

struct FaultPlan {
  /// Per-packet drop probability on every channel (seed-driven Bernoulli).
  double drop_rate = 0.0;
  /// Per-packet corruption probability (receiver discards; sender retries).
  double corrupt_rate = 0.0;
  std::vector<LinkFlap> flaps;
  std::vector<HcaStall> stalls;
  std::vector<ControlDelay> control_delays;
  std::vector<BufferSqueeze> squeezes;

  /// True if the plan injects anything at all. An empty plan means the
  /// fabric runs the perfect-link fast path, byte-identical to no plan.
  [[nodiscard]] bool any() const noexcept {
    return drop_rate > 0.0 || corrupt_rate > 0.0 || !flaps.empty() ||
           !stalls.empty() || !control_delays.empty() || !squeezes.empty();
  }

  /// Parse a spec string (grammar above). Throws std::invalid_argument with
  /// a pointed message on malformed input. An empty spec is a valid empty
  /// plan.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// Canonical spec string: parse(to_string()) rebuilds this plan exactly
  /// (for logging and test assertions).
  [[nodiscard]] std::string to_string() const;
};

}  // namespace resex::fault
