// Send-queue ring + UAR doorbell tests: the post path's bytes really live
// in guest memory and the HCA trusts only what it fetches from there.

#include <gtest/gtest.h>

#include <cstring>

#include "fabric_fixture.hpp"

namespace resex::fabric {
namespace {

using namespace resex::sim::literals;
using sim::Task;
using testing::TwoNodeWorld;

SendWr sample_wr(const Endpoint& src, const Endpoint& dst) {
  SendWr wr;
  wr.wr_id = 0xABCD;
  wr.opcode = Opcode::kRdmaWriteWithImm;
  wr.local_addr = src.buf;
  wr.lkey = src.mr.lkey;
  wr.length = 2048;
  wr.remote_addr = dst.buf;
  wr.rkey = dst.mr.rkey;
  wr.imm_data = 7;
  std::string h = "inline-header";
  wr.header.resize(h.size());
  std::memcpy(wr.header.data(), h.data(), h.size());
  return wr;
}

TEST(WqeRing, WriteWqeSerializesIntoGuestMemory) {
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  const auto wr = sample_wr(a, b);
  a.qp->write_wqe(wr);
  EXPECT_EQ(a.qp->sq_produced(), 1u);
  // Raw bytes at the ring base parse back to the same WQE fields.
  const auto raw = a.domain->memory().read_obj<Wqe>(a.qp->sq_base());
  EXPECT_EQ(raw.wr_id, 0xABCDu);
  EXPECT_EQ(raw.length, 2048u);
  EXPECT_EQ(raw.imm_data, 7u);
  EXPECT_EQ(raw.opcode, static_cast<std::uint8_t>(Opcode::kRdmaWriteWithImm));
  EXPECT_EQ(raw.inline_len, 13u);
  EXPECT_TRUE(raw.flags & Wqe::kFlagSignaled);
}

TEST(WqeRing, DoorbellRecordAnnouncesProducerCount) {
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  EXPECT_EQ(a.qp->doorbell_value(), 0u);
  a.qp->write_wqe(sample_wr(a, b));
  a.qp->write_wqe(sample_wr(a, b));
  EXPECT_EQ(a.qp->doorbell_value(), 2u);
}

TEST(WqeRing, FetchRoundTripsIncludingInlineHeader) {
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  const auto wr = sample_wr(a, b);
  a.qp->write_wqe(wr);
  const SendWr fetched = a.qp->fetch_wqe(0);
  EXPECT_EQ(fetched.wr_id, wr.wr_id);
  EXPECT_EQ(fetched.opcode, wr.opcode);
  EXPECT_EQ(fetched.local_addr, wr.local_addr);
  EXPECT_EQ(fetched.remote_addr, wr.remote_addr);
  EXPECT_EQ(fetched.length, wr.length);
  EXPECT_EQ(fetched.lkey, wr.lkey);
  EXPECT_EQ(fetched.rkey, wr.rkey);
  EXPECT_EQ(fetched.imm_data, wr.imm_data);
  EXPECT_EQ(fetched.signaled, wr.signaled);
  EXPECT_EQ(fetched.header, wr.header);
  EXPECT_EQ(a.qp->sq_fetched(), 1u);
}

TEST(WqeRing, OverflowWithoutFetchThrows) {
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  for (std::uint32_t i = 0; i < a.qp->sq_entries(); ++i) {
    a.qp->write_wqe(sample_wr(a, b));
  }
  EXPECT_THROW(a.qp->write_wqe(sample_wr(a, b)), std::runtime_error);
}

TEST(WqeRing, InlineHeaderTooLargeThrows) {
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  auto wr = sample_wr(a, b);
  wr.header.resize(kMaxInlineBytes + 1);
  EXPECT_THROW(a.qp->write_wqe(wr), std::invalid_argument);
}

TEST(WqeRing, UninstalledSendQueueThrows) {
  TwoNodeWorld world;
  Endpoint a = world.make_endpoint(world.node_a, *world.hca_a, "a");
  a.qp->set_send_queue(0, 0, 0);
  SendWr wr;
  EXPECT_THROW(a.qp->write_wqe(wr), std::logic_error);
}

TEST(WqeRing, EndToEndThroughRingDeliversHeader) {
  // Full path: Verbs -> WQE bytes in guest memory -> doorbell -> HCA fetch
  // -> wire -> DMA at the target. The header must survive the whole trip.
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  b.qp->post_recv(RecvWr{.wr_id = 1});
  std::vector<Cqe> cqes;
  world.sim.spawn([](Endpoint& src, Endpoint& dst,
                     std::vector<Cqe>& out) -> Task {
    co_await src.verbs->post_send(*src.qp, sample_wr(src, dst));
    out.push_back(co_await src.verbs->next_cqe(*src.send_cq));
  }(a, b, cqes));
  world.sim.run();
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  std::string landed(13, '\0');
  std::vector<std::byte> raw(13);
  b.domain->memory().read(b.buf, raw);
  std::memcpy(landed.data(), raw.data(), raw.size());
  EXPECT_EQ(landed, "inline-header");
  EXPECT_EQ(a.qp->sq_fetched(), 1u);
}

TEST(WqeRing, RingWrapsAcrossManyLaps) {
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  std::vector<Cqe> cqes;
  const int total = 300;  // > 2 laps of the 128-entry ring
  world.sim.spawn([](Endpoint& src, Endpoint& dst, std::vector<Cqe>& out,
                     int n) -> Task {
    for (int i = 0; i < n; ++i) {
      auto wr = sample_wr(src, dst);
      wr.opcode = Opcode::kRdmaWrite;
      wr.wr_id = static_cast<std::uint64_t>(i);
      co_await src.verbs->post_send(*src.qp, wr);
      out.push_back(co_await src.verbs->next_cqe(*src.send_cq));
    }
  }(a, b, cqes, total));
  world.sim.run();
  ASSERT_EQ(cqes.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(cqes[static_cast<std::size_t>(i)].wr_id,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(a.qp->sq_produced(), static_cast<std::uint64_t>(total));
  EXPECT_EQ(a.qp->sq_fetched(), static_cast<std::uint64_t>(total));
}

}  // namespace
}  // namespace resex::fabric
