// Pull segmentation: Hca::start_transfer queues one run entry per message on
// the host uplink and the uplink cuts each packet as it wins arbitration.
// Every reader must see exactly what eager segmentation (one enqueue per
// packet, in index order) showed it: the sink's (index, bytes, psn), the
// backlog left by each launch, and the fault hook's view. Retransmits stay
// single packets with fresh PSNs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "fabric/fault_hook.hpp"
#include "fabric_fixture.hpp"

namespace resex::fabric {
namespace {

using testing::TwoNodeWorld;

struct Launch {
  std::uint32_t index = 0;
  std::uint32_t bytes = 0;
  std::uint64_t psn = 0;
  std::uint64_t backlog_pkts = 0;  // left on the channel by this launch
  std::uint64_t backlog_bytes = 0;
};

struct Seen {
  std::uint32_t index = 0;
  std::uint32_t bytes = 0;
  std::uint64_t psn = 0;
  bool operator==(const Seen&) const = default;
};

/// Records every launch on one channel with the backlog it left, and drops
/// the listed packet indexes on their first transmission.
class LaunchProbe final : public FaultHook {
 public:
  explicit LaunchProbe(const Channel& watched) : watched_(&watched) {}

  PacketFate on_transmit(const Channel& channel,
                         const detail::Packet& pkt) override {
    if (&channel != watched_) return PacketFate::kDeliver;
    launches.push_back({pkt.index, pkt.bytes, pkt.psn,
                        channel.backlog_packets(), channel.backlog_bytes()});
    return drop_once.erase(pkt.index) > 0 ? PacketFate::kDrop
                                          : PacketFate::kDeliver;
  }

  std::vector<Launch> launches;
  std::set<std::uint32_t> drop_once;

 private:
  const Channel* watched_;
};

/// Eager segmentation, computed here: packet i of a `wire`-byte message.
std::uint32_t eager_bytes(std::uint32_t wire, std::uint32_t mtu,
                          std::uint32_t i) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(mtu, wire - std::uint64_t{i} * mtu));
}

/// One message alone on A's uplink: a world, a probe on that uplink
/// (fabric-wide when reliable, so the fabric runs its RC machinery), and
/// the uplink's sink wrapped to record each packet before forwarding it to
/// B's downlink, as the switch would.
struct OneMessage {
  TwoNodeWorld w;
  Endpoint a, b;
  LaunchProbe probe;
  std::vector<Seen> seen;
  testing::TestSink forward;

  OneMessage(std::uint32_t buf_bytes, bool reliable)
      : probe(w.hca_a->uplink()) {
    std::tie(a, b) = w.make_connected_pair(buf_bytes);
    if (reliable) {
      w.fabric.set_fault_hook(&probe);
    } else {
      w.hca_a->uplink().set_fault_hook(&probe);
    }
    forward.attach(w.hca_a->uplink());
    forward.fn = [this](detail::Packet&& p) {
      seen.push_back({p.index, p.bytes, p.psn});
      w.hca_b->downlink().enqueue(std::move(p));
    };
  }

  /// Post one write of `length` bytes and run until quiet.
  void run(std::uint32_t length) {
    SendWr wr;
    wr.opcode = Opcode::kRdmaWrite;
    wr.local_addr = a.buf;
    wr.lkey = a.mr.lkey;
    wr.length = length;
    wr.remote_addr = b.buf;
    wr.rkey = b.mr.rkey;
    w.hca_a->post_send(*a.qp, wr);
    w.sim.run();
    const auto cqe = a.send_cq->poll();
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  }
};

/// The first `n` launches of a `wire`-byte message are the eager packets,
/// and the sink saw the same packets but for the `dropped` ones. Without
/// drops (whose resends join the backlog), each launch also left the eager
/// backlog: the first packet launches before the rest are queued, so it
/// leaves none.
void expect_eager(const OneMessage& m, std::uint32_t wire, std::uint64_t psn0,
                  bool numbered, const std::set<std::uint32_t>& dropped = {}) {
  const std::uint32_t mtu = m.w.fabric.config().mtu_bytes;
  const std::uint32_t n = (wire + mtu - 1) / mtu;
  ASSERT_GE(m.probe.launches.size(), n);
  ASSERT_GE(m.seen.size(), n - dropped.size());
  std::uint64_t left = wire;
  std::size_t arrived = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    const Seen want{i, eager_bytes(wire, mtu, i), numbered ? psn0 + i : 0};
    if (dropped.count(i) == 0) {
      EXPECT_EQ(m.seen[arrived++], want);
    }
    const Launch& l = m.probe.launches[i];
    EXPECT_EQ((Seen{l.index, l.bytes, l.psn}), want);
    left -= want.bytes;
    if (dropped.empty()) {
      EXPECT_EQ(l.backlog_pkts, i == 0 ? 0u : n - 1 - i);
      EXPECT_EQ(l.backlog_bytes, i == 0 ? 0u : left);
    }
  }
}

TEST(PullSegmentation, RunsCutTheEagerPacketsAndBacklog) {
  const std::uint32_t mtu = testing::test_config().mtu_bytes;
  for (const std::uint32_t len :
       {1u, mtu, mtu + 1, 64u * 1024, 2u * 1024 * 1024 + 100}) {
    for (const bool reliable : {false, true}) {
      SCOPED_TRACE(::testing::Message() << len << " B, reliable " << reliable);
      OneMessage m(len, reliable);
      const std::uint64_t psn0 = m.a.qp->send_psn();
      m.run(len);
      if (::testing::Test::HasFatalFailure()) return;
      expect_eager(m, len, psn0, reliable);
      EXPECT_EQ(m.seen.size(), (len + mtu - 1) / mtu);
      EXPECT_EQ(m.w.hca_a->uplink().backlog_packets(), 0u);
      EXPECT_EQ(m.w.hca_a->uplink().backlog_bytes(), 0u);
    }
  }
}

TEST(PullSegmentation, NakRetransmitResendsOnlyTheHolesWithFreshPsns) {
  constexpr std::uint32_t kLen = 64 * 1024;
  OneMessage m(kLen, /*reliable=*/true);
  m.probe.drop_once = {3, 7};
  m.run(kLen);
  if (::testing::Test::HasFatalFailure()) return;
  expect_eager(m, kLen, 0, true, {3, 7});
  // 64 first transmissions, then one single-packet resend per hole, each
  // with the next unused PSN and its eager size.
  ASSERT_EQ(m.probe.launches.size(), 66u);
  ASSERT_EQ(m.seen.size(), 64u);  // the two dropped never reached the sink
  EXPECT_EQ(m.seen[62], (Seen{3, 1024, 64}));
  EXPECT_EQ(m.seen[63], (Seen{7, 1024, 65}));
  // Two NAKs: the second hole is only NAKed once the first resend has
  // closed the prefix below it.
  EXPECT_EQ(m.w.sim.metrics().counter("fabric.retransmits").value(), 2u);
}

TEST(PullSegmentation, TimeoutRetransmitResendsTheShortLastPacket) {
  // Nothing arrives after a lost last packet to reveal the hole: the ack
  // timeout resends it alone.
  constexpr std::uint32_t kLen = 64 * 1024 + 100;
  OneMessage m(kLen, /*reliable=*/true);
  m.probe.drop_once = {64};
  m.run(kLen);
  if (::testing::Test::HasFatalFailure()) return;
  expect_eager(m, kLen, 0, true, {64});
  ASSERT_EQ(m.probe.launches.size(), 66u);
  ASSERT_EQ(m.seen.size(), 65u);
  EXPECT_EQ(m.seen[64], (Seen{64, 100, 65}));
  EXPECT_EQ(m.probe.launches[65].backlog_pkts, 0u);
}

}  // namespace
}  // namespace resex::fabric
