#include <gtest/gtest.h>

#include <cstring>

#include "fabric_fixture.hpp"

namespace resex::fabric {
namespace {

using namespace resex::sim::literals;
using sim::SimTime;
using sim::Task;
using testing::TwoNodeWorld;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

/// Post a send WR and record its completion (CQE + observation time).
Task post_and_complete(Endpoint& ep, SendWr wr, std::vector<Cqe>& cqes,
                       std::vector<SimTime>& times) {
  co_await ep.verbs->post_send(*ep.qp, std::move(wr));
  cqes.push_back(co_await ep.verbs->next_cqe(*ep.send_cq));
  times.push_back(ep.domain->vcpu().simulation().now());
}

/// Wait for one receive-side CQE.
Task await_recv(Endpoint& ep, std::vector<Cqe>& cqes,
                std::vector<SimTime>& times) {
  cqes.push_back(co_await ep.verbs->next_cqe(*ep.recv_cq));
  times.push_back(ep.domain->vcpu().simulation().now());
}

SendWr write_imm_wr(const Endpoint& src, const Endpoint& dst,
                    std::uint32_t length, std::uint64_t wr_id = 1,
                    std::uint32_t imm = 0) {
  SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = Opcode::kRdmaWriteWithImm;
  wr.local_addr = src.buf;
  wr.lkey = src.mr.lkey;
  wr.length = length;
  wr.remote_addr = dst.buf;
  wr.rkey = dst.mr.rkey;
  wr.imm_data = imm;
  return wr;
}

struct FabricEndToEnd : ::testing::Test {
  TwoNodeWorld world;
  std::pair<Endpoint, Endpoint> pair = world.make_connected_pair();
  Endpoint& a = pair.first;
  Endpoint& b = pair.second;
  std::vector<Cqe> send_cqes, recv_cqes;
  std::vector<SimTime> send_times, recv_times;
};

TEST_F(FabricEndToEnd, WriteWithImmDeliversHeaderAndBothCqes) {
  auto wr = write_imm_wr(a, b, 4096, /*wr_id=*/77, /*imm=*/0xAB);
  wr.header = bytes_of("hello-rdma");
  b.qp->post_recv(RecvWr{.wr_id = 501, .addr = 0, .lkey = 0, .length = 0});
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.spawn(await_recv(b, recv_cqes, recv_times));
  world.sim.run();

  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].wr_id, 77u);
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kSuccess));
  EXPECT_EQ(send_cqes[0].byte_len, 4096u);

  ASSERT_EQ(recv_cqes.size(), 1u);
  EXPECT_EQ(recv_cqes[0].wr_id, 501u);
  EXPECT_EQ(recv_cqes[0].imm_data, 0xABu);
  EXPECT_EQ(recv_cqes[0].byte_len, 4096u);
  EXPECT_EQ(recv_cqes[0].opcode,
            static_cast<std::uint8_t>(CqeOpcode::kRecvRdmaWithImm));

  // Header bytes really landed in B's memory at the remote address.
  std::string landed(10, '\0');
  std::vector<std::byte> raw(10);
  b.domain->memory().read(b.buf, raw);
  std::memcpy(landed.data(), raw.data(), raw.size());
  EXPECT_EQ(landed, "hello-rdma");
}

TEST_F(FabricEndToEnd, PlainWriteProducesNoReceiverCqe) {
  auto wr = write_imm_wr(a, b, 1024);
  wr.opcode = Opcode::kRdmaWrite;
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.run();
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kSuccess));
  EXPECT_EQ(b.recv_cq->produced(), 0u);
}

TEST_F(FabricEndToEnd, SendRecvDeliversToPostedBuffer) {
  SendWr wr;
  wr.wr_id = 9;
  wr.opcode = Opcode::kSend;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = 2048;
  wr.header = bytes_of("send-path");
  b.qp->post_recv(RecvWr{.wr_id = 11, .addr = b.buf + 8192,
                         .lkey = b.mr.lkey, .length = 4096});
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.spawn(await_recv(b, recv_cqes, recv_times));
  world.sim.run();

  ASSERT_EQ(recv_cqes.size(), 1u);
  EXPECT_EQ(recv_cqes[0].wr_id, 11u);
  EXPECT_EQ(recv_cqes[0].opcode, static_cast<std::uint8_t>(CqeOpcode::kRecv));
  std::vector<std::byte> raw(9);
  b.domain->memory().read(b.buf + 8192, raw);
  std::string landed(9, '\0');
  std::memcpy(landed.data(), raw.data(), raw.size());
  EXPECT_EQ(landed, "send-path");
}

TEST(FabricRnr, WriteImmWithoutRecvExhaustsRetries) {
  auto cfg = testing::test_config();
  cfg.rnr_retry_limit = 3;
  TwoNodeWorld world(cfg);
  auto [a, b] = world.make_connected_pair();
  std::vector<Cqe> send_cqes;
  std::vector<SimTime> send_times;
  world.sim.spawn(
      post_and_complete(a, write_imm_wr(a, b, 1024), send_cqes, send_times));
  world.sim.run();
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kRnrRetryExceeded));
  EXPECT_EQ(b.recv_cq->produced(), 0u);
  // The error CQE arrives only after the 3 retry delays elapsed.
  EXPECT_GE(send_times[0], 3u * cfg.rnr_retry_delay);
}

TEST(FabricRnr, RetryDeliversOnceRecvIsPosted) {
  TwoNodeWorld world;  // default config: infinite RNR retry
  auto [a, b] = world.make_connected_pair();
  std::vector<Cqe> send_cqes, recv_cqes;
  std::vector<SimTime> send_times, recv_times;
  world.sim.spawn(
      post_and_complete(a, write_imm_wr(a, b, 1024), send_cqes, send_times));
  world.sim.spawn(await_recv(b, recv_cqes, recv_times));
  // The receive WQE shows up only 2 ms after the message arrived: the HCA
  // must keep NAK-retrying and deliver then.
  world.sim.schedule_at(2 * sim::kMillisecond,
                        [&b = b] { b.qp->post_recv(RecvWr{.wr_id = 9}); });
  world.sim.run_until(5 * sim::kMillisecond);
  ASSERT_EQ(recv_cqes.size(), 1u);
  EXPECT_EQ(recv_cqes[0].wr_id, 9u);
  EXPECT_GE(recv_times[0], 2 * sim::kMillisecond);
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kSuccess));
}

TEST_F(FabricEndToEnd, SendToShortBufferErrsBothSides) {
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = 4096;
  b.qp->post_recv(RecvWr{.wr_id = 1, .addr = b.buf, .lkey = b.mr.lkey,
                         .length = 1024});  // too small
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.spawn(await_recv(b, recv_cqes, recv_times));
  world.sim.run();
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kLocalLengthError));
  ASSERT_EQ(recv_cqes.size(), 1u);
  EXPECT_EQ(recv_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kLocalLengthError));
}

TEST_F(FabricEndToEnd, BadRkeyIsRemoteAccessError) {
  auto wr = write_imm_wr(a, b, 1024);
  wr.rkey = 0xDEAD00;
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.run();
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kRemoteAccessError));
}

TEST_F(FabricEndToEnd, WriteBeyondRegisteredRangeRejected) {
  auto wr = write_imm_wr(a, b, 1024);
  wr.remote_addr = b.buf + 64 * 1024 - 10;  // runs off the MR's end
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.run();
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kRemoteAccessError));
}

TEST_F(FabricEndToEnd, BadLkeyIsLocalProtectionError) {
  auto wr = write_imm_wr(a, b, 1024);
  wr.lkey = 0xBEEF00;
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.run();
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kLocalProtectionError));
}

TEST_F(FabricEndToEnd, RdmaReadCompletesAtRequester) {
  SendWr wr;
  wr.wr_id = 33;
  wr.opcode = Opcode::kRdmaRead;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = 8192;
  wr.remote_addr = b.buf;
  wr.rkey = b.mr.rkey;
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.run();
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].opcode,
            static_cast<std::uint8_t>(CqeOpcode::kRdmaReadComplete));
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kSuccess));
  // Round trip: request one way + 8 data packets back; must exceed the
  // one-way time of an equal-size write.
  EXPECT_GT(send_times[0], 8u * 1024u + 1000u);
}

TEST_F(FabricEndToEnd, RdmaReadWithoutRemoteReadRightFails) {
  // Register a write-only region on B and try to read it.
  const auto wo = world.hca_b->reg_mr(b.pd, *b.domain, b.buf + 32768, 1024,
                                      mem::Access::kRemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::kRdmaRead;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = 512;
  wr.remote_addr = b.buf + 32768;
  wr.rkey = wo.rkey;
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.run();
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kRemoteAccessError));
}

TEST_F(FabricEndToEnd, UnsignaledSuccessProducesNoCqeButErrorsDo) {
  auto ok = write_imm_wr(a, b, 1024);
  ok.opcode = Opcode::kRdmaWrite;
  ok.signaled = false;
  auto bad = ok;
  bad.rkey = 0xBAD00;
  world.sim.spawn([](Endpoint& ep, SendWr w1, SendWr w2) -> Task {
    co_await ep.verbs->post_send(*ep.qp, std::move(w1));
    co_await ep.verbs->post_send(*ep.qp, std::move(w2));
  }(a, ok, bad));
  world.sim.run();
  EXPECT_EQ(a.send_cq->produced(), 1u);  // only the error
  const auto cqe = a.send_cq->poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status,
            static_cast<std::uint8_t>(CqeStatus::kRemoteAccessError));
}

TEST_F(FabricEndToEnd, LatencyScalesWithMessageSize) {
  b.qp->post_recv(RecvWr{.wr_id = 1});
  b.qp->post_recv(RecvWr{.wr_id = 2});
  world.sim.spawn([](Endpoint& src, Endpoint& dst, std::vector<Cqe>& cqes,
                     std::vector<SimTime>& times) -> Task {
    auto& sim = src.domain->vcpu().simulation();
    const SimTime t0 = sim.now();
    co_await src.verbs->post_send(*src.qp, write_imm_wr(src, dst, 16 * 1024));
    (void)co_await src.verbs->next_cqe(*src.send_cq);
    const SimTime t1 = sim.now();
    co_await src.verbs->post_send(*src.qp, write_imm_wr(src, dst, 32 * 1024));
    (void)co_await src.verbs->next_cqe(*src.send_cq);
    const SimTime t2 = sim.now();
    times.push_back(t1 - t0);
    times.push_back(t2 - t1);
    cqes.clear();
  }(a, b, send_cqes, send_times));
  world.sim.run();
  ASSERT_EQ(send_times.size(), 2u);
  // Serialization dominates: doubling the size roughly doubles latency.
  const double ratio = static_cast<double>(send_times[1]) /
                       static_cast<double>(send_times[0]);
  EXPECT_NEAR(ratio, 2.0, 0.25);
}

TEST_F(FabricEndToEnd, SharedUplinkInterferenceInflatesLatency) {
  // Second pair of VMs: C on node A streams large messages to D on node B,
  // sharing A's uplink with the measured A->B flow.
  Endpoint c = world.make_endpoint(world.node_a, *world.hca_a, "vmC",
                                   2 * 1024 * 1024);
  Endpoint d = world.make_endpoint(world.node_b, *world.hca_b, "vmD",
                                   2 * 1024 * 1024);
  Fabric::connect(*c.qp, *d.qp);

  // Baseline: measure a 64 KiB write alone.
  SimTime solo = 0, contended = 0;
  b.qp->post_recv(RecvWr{.wr_id = 1});
  b.qp->post_recv(RecvWr{.wr_id = 2});
  world.sim.spawn([](Endpoint& src, Endpoint& dst, SimTime& out) -> Task {
    auto& sim = src.domain->vcpu().simulation();
    const SimTime t0 = sim.now();
    co_await src.verbs->post_send(*src.qp, write_imm_wr(src, dst, 64 * 1024));
    (void)co_await src.verbs->next_cqe(*src.send_cq);
    out = sim.now() - t0;
  }(a, b, solo));
  world.sim.run();

  // Contended: C streams continuously while A repeats the measurement.
  world.sim.spawn([](Endpoint& src, Endpoint& dst) -> Task {
    for (int i = 0; i < 50; ++i) {
      SendWr wr;
      wr.opcode = Opcode::kRdmaWrite;
      wr.local_addr = src.buf;
      wr.lkey = src.mr.lkey;
      wr.length = 256 * 1024;
      wr.remote_addr = dst.buf;
      wr.rkey = dst.mr.rkey;
      co_await src.verbs->post_send(*src.qp, wr);
      (void)co_await src.verbs->next_cqe(*src.send_cq);
    }
  }(c, d));
  world.sim.spawn([](Endpoint& src, Endpoint& dst, SimTime& out) -> Task {
    auto& sim = src.domain->vcpu().simulation();
    co_await sim.delay(300 * sim::kMicrosecond);  // let C's stream ramp up
    const SimTime t0 = sim.now();
    co_await src.verbs->post_send(*src.qp, write_imm_wr(src, dst, 64 * 1024,
                                                        /*wr_id=*/2));
    (void)co_await src.verbs->next_cqe(*src.send_cq);
    out = sim.now() - t0;
  }(a, b, contended));
  world.sim.run();

  EXPECT_GT(contended, solo + solo / 2)
      << "solo=" << solo << " contended=" << contended;
}

TEST_F(FabricEndToEnd, PerQpTrafficCounters) {
  auto wr = write_imm_wr(a, b, 10 * 1024);
  wr.opcode = Opcode::kRdmaWrite;
  world.sim.spawn(post_and_complete(a, wr, send_cqes, send_times));
  world.sim.run();
  EXPECT_EQ(a.qp->bytes_sent(), 10u * 1024u);
  EXPECT_EQ(a.qp->msgs_sent(), 1u);
  EXPECT_EQ(world.hca_a->uplink().bytes_sent(), 10u * 1024u);
  EXPECT_EQ(world.hca_a->uplink().packets_sent(), 10u);
  EXPECT_EQ(world.hca_b->downlink().packets_sent(), 10u);
}

TEST_F(FabricEndToEnd, NextCqeBusyPollChargesCpu) {
  b.qp->post_recv(RecvWr{.wr_id = 1});
  world.sim.spawn(
      post_and_complete(a, write_imm_wr(a, b, 64 * 1024), send_cqes,
                        send_times));
  world.sim.run();
  // The sender busy-polled for the whole ~65 us transfer; XenStat must show
  // CPU burned comparable to the elapsed time.
  const auto busy = a.domain->vcpu().busy_ns();
  EXPECT_GT(busy, 50 * sim::kMicrosecond);
}

TEST(FabricControl, PostSendValidation) {
  TwoNodeWorld world;
  Endpoint lone = world.make_endpoint(world.node_a, *world.hca_a, "lone");
  SendWr wr;
  EXPECT_THROW(world.hca_a->post_send(*lone.qp, wr), std::logic_error);

  auto [a, b] = world.make_connected_pair();
  SendWr bad;
  bad.length = 4;
  bad.header = std::vector<std::byte>(16);
  EXPECT_THROW(world.hca_a->post_send(*a.qp, bad), std::invalid_argument);
}

TEST(FabricControl, ZeroLengthMessageCannotSmuggleHeaderBytes) {
  // Regression: validate_post used to exempt wr.length == 0 from the
  // header-length check, so a zero-byte message could carry header bytes
  // that dma_header would write even though the TPT only validated a
  // zero-length access.
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  SendWr bad;
  bad.opcode = Opcode::kSend;
  bad.local_addr = a.buf;
  bad.lkey = a.mr.lkey;
  bad.length = 0;
  bad.header = std::vector<std::byte>(16);
  EXPECT_THROW(world.hca_a->post_send(*a.qp, bad), std::invalid_argument);

  // A genuinely empty zero-length message is still accepted.
  SendWr ok = bad;
  ok.header.clear();
  EXPECT_NO_THROW(world.hca_a->post_send(*a.qp, ok));
}

TEST(FabricControl, PdOwnershipEnforced) {
  TwoNodeWorld world;
  Endpoint a = world.make_endpoint(world.node_a, *world.hca_a, "a");
  hv::Domain& other = world.node_a.create_domain({.name = "other"});
  EXPECT_THROW(
      (void)world.hca_a->reg_mr(a.pd, other, 0, 64, mem::Access::kNone),
      std::invalid_argument);
  auto& cq = world.hca_a->create_cq(other, 16);
  EXPECT_THROW((void)world.hca_a->create_qp(other, a.pd, cq, cq),
               std::invalid_argument);
}

TEST(FabricControl, RegMrBoundsChecked) {
  TwoNodeWorld world;
  Endpoint a = world.make_endpoint(world.node_a, *world.hca_a, "a");
  EXPECT_THROW((void)world.hca_a->reg_mr(
                   a.pd, *a.domain, a.domain->memory().size_bytes() - 16, 64,
                   mem::Access::kNone),
               mem::BadGuestAccess);
}

TEST(FabricControl, DeregMrInvalidatesAndForgetOwner) {
  TwoNodeWorld world;
  Endpoint a = world.make_endpoint(world.node_a, *world.hca_a, "a");
  EXPECT_TRUE(world.hca_a->dereg_mr(a.mr.lkey));
  EXPECT_FALSE(world.hca_a->dereg_mr(a.mr.lkey));
}

TEST(FabricControl, DomainCqsLookup) {
  TwoNodeWorld world;
  Endpoint a = world.make_endpoint(world.node_a, *world.hca_a, "a");
  Endpoint b2 = world.make_endpoint(world.node_a, *world.hca_a, "b2");
  const auto cqs_a = world.hca_a->domain_cqs(a.domain->id());
  EXPECT_EQ(cqs_a.size(), 2u);  // send + recv
  const auto cqs_b = world.hca_a->domain_cqs(b2.domain->id());
  EXPECT_EQ(cqs_b.size(), 2u);
  EXPECT_TRUE(world.hca_a->domain_cqs(12345).empty());
}

TEST(FabricControl, VerbsControlPathCostsWallClock) {
  TwoNodeWorld world;
  hv::Domain& dom = world.node_a.create_domain({.name = "vm"});
  Verbs verbs(*world.hca_a, dom);
  sim::SimTime done = 0;
  world.sim.spawn([](Verbs& v, sim::SimTime& out) -> Task {
    const auto pd = co_await v.alloc_pd();
    auto* cq = co_await v.create_cq(64);
    auto* cq2 = co_await v.create_cq(64);
    (void)co_await v.create_qp(pd, *cq, *cq2);
    out = v.vcpu().simulation().now();
  }(verbs, done));
  world.sim.run();
  // Four control-path trips at ~27 us each.
  EXPECT_GT(done, 100 * sim::kMicrosecond);
}

TEST(FabricControl, FabricAccessors) {
  TwoNodeWorld world;
  EXPECT_EQ(world.fabric.hca_count(), 2u);
  EXPECT_EQ(&world.fabric.hca(0), world.hca_a);
  EXPECT_EQ(world.hca_a->id(), 0u);
  EXPECT_EQ(world.hca_b->id(), 1u);
  EXPECT_THROW((void)world.fabric.hca(5), std::out_of_range);
  FabricConfig bad;
  bad.mtu_bytes = 0;
  EXPECT_THROW(Fabric(world.sim, bad), std::invalid_argument);
}

}  // namespace
}  // namespace resex::fabric
