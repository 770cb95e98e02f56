// Transfer ownership: detail::TransferRef's plain reference count, and a
// transfer outliving its completion while a late duplicate of one of its
// packets is still in the fabric. Under ASan a transfer freed too early is a
// heap-use-after-free and one never freed is a leak.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fabric/fault_hook.hpp"
#include "fabric_fixture.hpp"

namespace resex::fabric {
namespace {

using namespace resex::sim::literals;
using testing::TwoNodeWorld;

/// The reference count, read by value: the assertions then hand the
/// checker no pointer into the transfer.
std::uint32_t refs(const detail::TransferRef& ref) { return ref->refs; }

TEST(TransferRef, CopyAndMoveAdjustTheCountAndTheLastReleaseFrees) {
  auto a = detail::TransferRef::make();
  ASSERT_NE(a.get(), nullptr);
  EXPECT_EQ(refs(a), 1u);
  {
    detail::TransferRef b = a;  // copy: one more owner
    EXPECT_EQ(refs(a), 2u);
    detail::TransferRef c = std::move(b);  // move: same owners
    EXPECT_EQ(refs(a), 2u);
    EXPECT_EQ(b.get(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(c.get() == a.get());
    detail::Packet pkt{c, 0, 64};  // a packet owns its transfer too
    EXPECT_EQ(refs(a), 3u);
    detail::Packet moved = std::move(pkt);
    EXPECT_EQ(refs(a), 3u);
    c = detail::TransferRef{};  // reassignment releases
    EXPECT_EQ(refs(a), 2u);
    b = moved.transfer;  // copy-assignment into an empty ref
    EXPECT_EQ(refs(a), 3u);
  }
  EXPECT_EQ(refs(a), 1u);
  // Assigning another transfer releases the last reference to the first:
  // it is deleted here (ASan reports a leak otherwise), and `a` then shares
  // the second one.
  auto other = detail::TransferRef::make();
  a = other;
  EXPECT_TRUE(a.get() == other.get());
  EXPECT_EQ(refs(other), 2u);
  other = detail::TransferRef{};
  EXPECT_EQ(refs(a), 1u);
}

/// Fabric-wide fault hook: drops the first transmission of packet 0 on the
/// sender's uplink, and records each packet the receiver's downlink puts on
/// the wire with whether its transfer had already completed.
class DropFirstRecordLate final : public FaultHook {
 public:
  DropFirstRecordLate(const Channel& uplink, const Channel& downlink)
      : uplink_(&uplink), downlink_(&downlink) {}

  PacketFate on_transmit(const Channel& channel,
                         const detail::Packet& pkt) override {
    if (&channel == downlink_) {
      arrivals.push_back({pkt.index, pkt.transfer->completed});
    }
    if (&channel == uplink_ && pkt.index == 0 && !dropped_) {
      dropped_ = true;
      return PacketFate::kDrop;
    }
    return PacketFate::kDeliver;
  }

  struct Arrival {
    std::uint32_t index = 0;
    bool completed = false;  // the transfer completed before this launch
    bool operator==(const Arrival&) const = default;
  };
  std::vector<Arrival> arrivals;

 private:
  const Channel* uplink_;
  const Channel* downlink_;
  bool dropped_ = false;
};

TEST(TransferRef, LateDuplicateOfCompletedTransferIsDiscarded) {
  // A 3-packet write on a QP rate-limited to one 1 KiB packet per 640 us,
  // so the ack timeout (1 ms + 8 x 3 us) fires while packets still queue:
  //   0 us     packet 0, dropped
  //   640 us   packet 1 arrives past a hole: NAK, packet 0 resent (queued)
  //   1025 us  RTO: packets 0 and 2 not yet received, both resent (queued)
  //   1280 us  packet 2;  1920 us  NAK copy of 0 completes the transfer
  //   2560 us  RTO copy of 0, 3200 us RTO copy of 2: duplicates of a
  //            completed transfer, still routed by its fields, discarded.
  TwoNodeWorld w;
  auto [a, b] = w.make_connected_pair();
  DropFirstRecordLate hook(w.hca_a->uplink(), w.hca_b->downlink());
  w.fabric.set_fault_hook(&hook);
  w.hca_a->uplink().set_flow_rate_limit(a.qp->num(), 1.6e6);

  SendWr wr;
  wr.opcode = Opcode::kRdmaWrite;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = 3 * 1024;
  wr.remote_addr = b.buf;
  wr.rkey = b.mr.rkey;
  w.hca_a->post_send(*a.qp, wr);
  w.sim.run();

  const auto cqe = a.send_cq->poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  EXPECT_FALSE(a.send_cq->poll().has_value());  // completed exactly once

  using Arrival = DropFirstRecordLate::Arrival;
  const std::vector<Arrival> want{
      {1, false}, {2, false}, {0, false}, {0, true}, {2, true}};
  EXPECT_EQ(hook.arrivals, want);
  auto& metrics = w.sim.metrics();
  EXPECT_EQ(metrics.counter("fabric.retransmits").value(), 2u);  // NAK + RTO
  EXPECT_EQ(metrics.counter("fabric.transfers").value(), 1u);
  EXPECT_EQ(w.hca_b->downlink().packets_sent(), 5u);
  EXPECT_EQ(w.hca_a->uplink().backlog_packets(), 0u);
}

}  // namespace
}  // namespace resex::fabric
