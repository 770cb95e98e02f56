// Property suite for the per-flow token-bucket rate limiter — the mechanism
// DCQCN actuates through, so its edge behaviour is load-bearing for every
// congestion experiment:
//
//  * set_flow_rate_limit settles the bucket at the old rate before switching:
//    however often a controller re-applies a limit (DCQCN updates every few
//    tens of microseconds), the flow never earns more than its rate plus the
//    one configured burst.
//  * eligible_at / the rate timer wake the channel at the first instant the
//    head packet is affordable: never a token early, and never oversleeping
//    by more than the deliberate +1 ns rounding per wakeup.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../fabric/fabric_fixture.hpp"
#include "sim/rng.hpp"

namespace resex::fabric {
namespace {

using namespace resex::sim::literals;
using testing::TwoNodeWorld;

struct RateLimitWorld {
  TwoNodeWorld world;
  FabricConfig cfg = testing::test_config();
  Channel chan{world.sim, cfg, "rl"};
  Endpoint src = world.make_endpoint(world.node_a, *world.hca_a,
                                              "src");
  Endpoint dst = world.make_endpoint(world.node_b, *world.hca_b,
                                              "dst");
  // (delivery time, packet bytes) in delivery order.
  std::vector<std::pair<sim::SimTime, std::uint32_t>> delivered;

  testing::TestSink sink;

  RateLimitWorld() {
    sink.attach(chan);
    sink.fn = [this](detail::Packet&& p) {
      delivered.emplace_back(world.sim.now(), p.bytes);
    };
  }

  void enqueue_packets(const std::vector<std::uint32_t>& sizes) {
    std::uint32_t total = 0;
    for (const auto s : sizes) total += s;
    auto t = detail::TransferRef::make();
    t->wr.length = total;
    t->src_qp = src.qp;
    t->dst_qp = dst.qp;
    t->wire_length = total;
    t->total_packets = static_cast<std::uint32_t>(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      chan.enqueue(detail::Packet{t, static_cast<std::uint32_t>(i), sizes[i]});
    }
  }

  /// Tokens the flow could have earned by the grant instant of delivery i:
  /// the grant happened one serialization (1 ns/byte) plus one propagation
  /// delay before the sink saw the packet.
  [[nodiscard]] double earned_by_grant(std::size_t i, double rate) const {
    const auto grant = static_cast<double>(
        delivered[i].first - delivered[i].second - 200);
    return grant * rate / 1e9;
  }
};

TEST(RateLimitProperties, RepeatedUpdatesAtDcqcnCadenceNeverGiftExtraBursts) {
  // A controller hammering set_flow_rate_limit — same rate, DCQCN cadence —
  // must be a no-op for the budget: throughput stays bounded by
  // bucket + rate * elapsed, with zero extra burst per update.
  constexpr double kRate = 50e6;  // 0.05 B/ns
  RateLimitWorld w;
  const QpNum qp = w.src.qp->num();
  w.chan.set_flow_rate_limit(qp, kRate);
  // More data than the 10 ms budget (~489 packets) so the limiter, not the
  // queue, decides throughput.
  w.enqueue_packets(std::vector<std::uint32_t>(700, 1024));
  // 300 re-applies, 47 us apart (off every natural period in the system).
  for (int k = 1; k <= 300; ++k) {
    w.world.sim.schedule_at(static_cast<sim::SimTime>(k) * 47 * sim::kMicrosecond,
                            [&w, qp] { w.chan.set_flow_rate_limit(qp, kRate); });
  }
  w.world.sim.run_until(10 * sim::kMillisecond);
  // Budget: one initial bucket (MTU = 1024, burst 0) + rate * elapsed. If an
  // update gifted even a fraction of a burst, 212 updates in 10 ms would
  // blow through this bound by hundreds of packets.
  std::uint64_t sent = 0;
  for (const auto& [t, bytes] : w.delivered) sent += bytes;
  const double budget = 1024.0 + kRate * 10e-3;
  EXPECT_LE(static_cast<double>(sent), budget + 1.0);
  // And the updates must not stall the flow either: it tracks the allowed
  // rate to within a couple of packets.
  EXPECT_GE(static_cast<double>(sent), budget - 3 * 1024.0);
}

TEST(RateLimitProperties, UpdatesSettleTheBucketAtTheOldRateFirst) {
  // Rate changes mid-flight: the bucket is settled at the *old* rate for the
  // elapsed interval, so a cut-then-raise sequence can never mint tokens the
  // flow did not earn. Bound every prefix with the running max rate.
  RateLimitWorld w;
  const QpNum qp = w.src.qp->num();
  constexpr double kHigh = 100e6;
  constexpr double kLow = 10e6;
  w.chan.set_flow_rate_limit(qp, kHigh);
  // More data than even kHigh could drain in 9 ms (~879 packets).
  w.enqueue_packets(std::vector<std::uint32_t>(1000, 1024));
  // Saw-tooth the limit the way a DCQCN episode does: cut, recover, cut...
  sim::Rng rng(0xfeedface);
  for (int k = 1; k <= 150; ++k) {
    const double rate = k % 2 == 0 ? kHigh : kLow;
    const auto jitter = static_cast<sim::SimDuration>(rng.uniform_u64(20_us));
    w.world.sim.schedule_at(
        static_cast<sim::SimTime>(k) * 60 * sim::kMicrosecond + jitter,
        [&w, qp, rate] { w.chan.set_flow_rate_limit(qp, rate); });
  }
  w.world.sim.run_until(9 * sim::kMillisecond);
  // Strongest safe bound without replaying the schedule: even if the flow
  // had been granted kHigh the whole time, it must never exceed bucket +
  // kHigh * elapsed — and with half the time at kLow it must land well
  // under it. A bucket-gifting bug adds ~150 KiB and fails the hard bound.
  std::uint64_t sent = 0;
  for (const auto& [t, bytes] : w.delivered) sent += bytes;
  const double hard = 1024.0 + kHigh * 9e-3;
  EXPECT_LE(static_cast<double>(sent), hard + 1.0);
  const double expected = 1024.0 + (kHigh + kLow) / 2.0 * 9e-3;
  EXPECT_LT(static_cast<double>(sent), expected + 8 * 1024.0);
  EXPECT_GT(static_cast<double>(sent), expected - 8 * 1024.0);
}

TEST(RateLimitProperties, WakeupFiresAtFirstAffordableInstantNeverEarly) {
  // Full-MTU packets at 0.01 B/ns: every packet after the first waits for
  // its tokens on the rate timer. Each wakeup must be affordable (never a
  // token early) and exact (only the +1 ns anti-jitter rounding late).
  constexpr double kRate = 10e6;
  RateLimitWorld w;
  const QpNum qp = w.src.qp->num();
  w.chan.set_flow_rate_limit(qp, kRate);
  constexpr std::size_t kPackets = 32;
  w.enqueue_packets(std::vector<std::uint32_t>(kPackets, 1024));
  w.world.sim.run();
  ASSERT_EQ(w.delivered.size(), kPackets);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    cum += w.delivered[i].second;
    // Never early: everything sent through packet i fits in the initial
    // bucket plus what the flow had earned when packet i was granted
    // (0.5 B of slack for the double-precision token account).
    EXPECT_LE(static_cast<double>(cum),
              1024.0 + w.earned_by_grant(i, kRate) + 0.5)
        << "packet " << i << " was granted early";
  }
  // Exactness: 32 packets = 31 waits of exactly 102.4 us each. The final
  // delivery may lag the ideal schedule only by the accumulated +1 ns
  // roundings plus the last serialization + propagation.
  const double ideal_last_grant = (static_cast<double>(cum) - 1024.0) / kRate
                                  * 1e9;
  const auto last_grant = static_cast<double>(
      w.delivered.back().first - w.delivered.back().second - 200);
  EXPECT_GE(last_grant, ideal_last_grant - 0.5);
  EXPECT_LE(last_grant, ideal_last_grant + 2.0 * kPackets);
}

TEST(RateLimitProperties, WakeupExactnessHoldsForRandomSubMtuTraffic) {
  // Randomized sizes and rates: the cumulative-affordability invariant and
  // the no-oversleep bound must hold for any mix, including packets smaller
  // than the bucket (several can ride one refill).
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    sim::Rng rng(seed);
    const double rate = 5e6 + rng.uniform(0.0, 45e6);
    RateLimitWorld w;
    const QpNum qp = w.src.qp->num();
    w.chan.set_flow_rate_limit(qp, rate);
    std::vector<std::uint32_t> sizes;
    std::uint64_t total = 0;
    for (int i = 0; i < 40; ++i) {
      sizes.push_back(static_cast<std::uint32_t>(64 + rng.uniform_u64(961)));
      total += sizes.back();
    }
    w.enqueue_packets(sizes);
    w.world.sim.run();
    ASSERT_EQ(w.delivered.size(), sizes.size()) << "seed " << seed;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < w.delivered.size(); ++i) {
      cum += w.delivered[i].second;
      EXPECT_LE(static_cast<double>(cum),
                1024.0 + w.earned_by_grant(i, rate) + 0.5)
          << "seed " << seed << " packet " << i;
    }
    // No oversleeping: the whole train finishes within the token-ideal time
    // plus per-wakeup rounding and the serialization pipeline.
    const double ideal_ns =
        std::max(0.0, (static_cast<double>(total) - 1024.0) / rate * 1e9);
    const auto last = static_cast<double>(w.delivered.back().first);
    EXPECT_LE(last, ideal_ns + 2.0 * static_cast<double>(sizes.size()) +
                        1024.0 + 200.0 + 1.0)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace resex::fabric
