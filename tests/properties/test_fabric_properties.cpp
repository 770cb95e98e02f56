// Property suite for the fabric: conservation and ordering invariants under
// randomized traffic patterns. Whatever the mix of sizes, QPs and directions,
// the fabric must not lose, duplicate, reorder, or mis-account messages.

#include <gtest/gtest.h>

#include <map>

#include "../fabric/fabric_fixture.hpp"
#include "sim/rng.hpp"

namespace resex::fabric {
namespace {

using namespace resex::sim::literals;
using sim::Task;
using testing::TwoNodeWorld;

struct TrafficPattern {
  std::uint64_t seed;
  int messages;
  std::uint32_t min_bytes;
  std::uint32_t max_bytes;
  int flows;  // sender endpoints on node A
};

class FabricPropertyTest : public ::testing::TestWithParam<TrafficPattern> {};

Task sender_task(Endpoint& src, Endpoint& dst, std::vector<std::uint32_t>
                 sizes, std::vector<Cqe>& completions) {
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SendWr wr;
    wr.wr_id = i;
    wr.opcode = Opcode::kRdmaWriteWithImm;
    wr.local_addr = src.buf;
    wr.lkey = src.mr.lkey;
    wr.length = sizes[i];
    wr.remote_addr = dst.buf;
    wr.rkey = dst.mr.rkey;
    wr.imm_data = static_cast<std::uint32_t>(i);
    co_await src.verbs->post_send(*src.qp, wr);
    completions.push_back(co_await src.verbs->next_cqe(*src.send_cq));
  }
}

Task receiver_task(Endpoint& ep, int expect, std::vector<Cqe>& received) {
  for (int i = 0; i < expect; ++i) {
    received.push_back(co_await ep.verbs->next_cqe(*ep.recv_cq));
    co_await ep.verbs->post_recv(*ep.qp, RecvWr{.wr_id = 0});
  }
}

TEST_P(FabricPropertyTest, ConservationOrderingAndAccounting) {
  const TrafficPattern p = GetParam();
  TwoNodeWorld world;
  sim::Rng rng(p.seed);

  struct FlowState {
    Endpoint src;
    Endpoint dst;
    std::vector<std::uint32_t> sizes;
    std::vector<Cqe> send_cqes;
    std::vector<Cqe> recv_cqes;
  };
  std::vector<std::unique_ptr<FlowState>> flows;
  std::uint64_t total_bytes = 0;
  for (int f = 0; f < p.flows; ++f) {
    auto fs = std::make_unique<FlowState>();
    const std::size_t buf = std::max<std::size_t>(p.max_bytes, 4096);
    fs->src = world.make_endpoint(world.node_a, *world.hca_a,
                                  "src" + std::to_string(f), buf);
    fs->dst = world.make_endpoint(world.node_b, *world.hca_b,
                                  "dst" + std::to_string(f), buf);
    Fabric::connect(*fs->src.qp, *fs->dst.qp);
    for (int m = 0; m < p.messages; ++m) {
      const auto bytes = static_cast<std::uint32_t>(
          p.min_bytes + rng.uniform_u64(p.max_bytes - p.min_bytes + 1));
      fs->sizes.push_back(bytes);
      total_bytes += bytes;
      fs->dst.qp->post_recv(RecvWr{.wr_id = static_cast<std::uint64_t>(m)});
    }
    flows.push_back(std::move(fs));
  }
  for (auto& fs : flows) {
    world.sim.spawn(sender_task(fs->src, fs->dst, fs->sizes, fs->send_cqes));
    world.sim.spawn(receiver_task(fs->dst, p.messages, fs->recv_cqes));
  }
  world.sim.run();

  std::uint64_t uplink_bytes_expected = 0;
  for (auto& fs : flows) {
    // Conservation: every message completed exactly once on both sides.
    ASSERT_EQ(fs->send_cqes.size(), fs->sizes.size());
    ASSERT_EQ(fs->recv_cqes.size(), fs->sizes.size());
    for (std::size_t i = 0; i < fs->sizes.size(); ++i) {
      // Ordering: RC QPs deliver in post order; imm echoes the index.
      EXPECT_EQ(fs->send_cqes[i].wr_id, i);
      EXPECT_EQ(fs->recv_cqes[i].imm_data, i);
      EXPECT_EQ(fs->recv_cqes[i].byte_len, fs->sizes[i]);
      EXPECT_EQ(fs->send_cqes[i].status,
                static_cast<std::uint8_t>(CqeStatus::kSuccess));
      // Causality: the receive CQE cannot precede enough wire time.
      EXPECT_GE(fs->recv_cqes[i].timestamp_ns, fs->sizes[i]);
      uplink_bytes_expected += std::max<std::uint32_t>(fs->sizes[i], 1);
    }
    // Per-QP accounting matches what was sent.
    std::uint64_t flow_bytes = 0;
    for (auto s : fs->sizes) flow_bytes += std::max<std::uint32_t>(s, 1);
    EXPECT_EQ(fs->src.qp->bytes_sent(), flow_bytes);
    EXPECT_EQ(fs->src.qp->msgs_sent(), fs->sizes.size());
  }
  // Link accounting: node A's uplink carried exactly the offered bytes.
  EXPECT_EQ(world.hca_a->uplink().bytes_sent(), uplink_bytes_expected);
  EXPECT_EQ(world.hca_b->downlink().bytes_sent(), uplink_bytes_expected);
  // The channel was busy exactly serialization time (1 ns/byte config).
  EXPECT_EQ(world.hca_a->uplink().busy_time(), uplink_bytes_expected);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, FabricPropertyTest,
    ::testing::Values(TrafficPattern{1, 40, 1, 64, 1},
                      TrafficPattern{2, 25, 1024, 8192, 2},
                      TrafficPattern{3, 10, 60000, 300000, 3},
                      TrafficPattern{4, 30, 1, 100000, 2},
                      TrafficPattern{5, 8, 1000000, 2000000, 2},
                      TrafficPattern{6, 64, 512, 1536, 4}),
    [](const ::testing::TestParamInfo<TrafficPattern>& info) {
      return "seed" + std::to_string(info.param.seed) + "_flows" +
             std::to_string(info.param.flows) + "_n" +
             std::to_string(info.param.messages);
    });

}  // namespace
}  // namespace resex::fabric
