// Backlog accounting drains to zero: after a world runs until quiet, every
// channel's packet and byte backlog (port-wide and per lane) and every
// switch pool's occupancy are back at 0. Channel::launch subtracts without
// clamping, so a run or retransmit that counts bytes it never queues (or
// the reverse) shows here as a non-zero or wrapped-around count.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric_fixture.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"

namespace resex::fabric {
namespace {

using testing::expect_drained;
using testing::TwoNodeWorld;

SendWr make_wr(const Endpoint& a, const Endpoint& b, std::uint32_t length) {
  SendWr wr;
  wr.opcode = Opcode::kRdmaWrite;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = length;
  wr.remote_addr = b.buf;
  wr.rkey = b.mr.rkey;
  return wr;
}

void expect_success(CompletionQueue& cq, int completions) {
  for (int i = 0; i < completions; ++i) {
    const auto cqe = cq.poll();
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  }
}

constexpr std::uint32_t k2M = 2u * 1024 * 1024;

TEST(BacklogDrain, TwoMegabyteWrite) {
  TwoNodeWorld w;
  auto [a, b] = w.make_connected_pair(k2M);
  w.hca_a->post_send(*a.qp, make_wr(a, b, k2M));
  w.sim.run();
  expect_success(*a.send_cq, 1);
  expect_drained(w.fabric);
}

TEST(BacklogDrain, DropsAndRetransmitsUnderAFaultPlan) {
  TwoNodeWorld w;
  auto [a, b] = w.make_connected_pair(k2M);
  fault::FaultPlan plan;
  plan.drop_rate = 0.01;
  fault::FaultInjector injector(plan, 7);
  injector.arm(w.fabric);
  w.hca_a->post_send(*a.qp, make_wr(a, b, k2M));
  w.sim.run();
  expect_success(*a.send_cq, 1);
  EXPECT_GT(injector.drops_injected(), 0u);
  EXPECT_GT(w.sim.metrics().counter("fabric.retransmits").value(), 0u);
  expect_drained(w.fabric);
}

TEST(BacklogDrain, SixteenToOnePfcIncastOnASharedPool) {
  constexpr int kSenders = 16;
  constexpr int kMessages = 20;
  constexpr std::uint32_t kLen = 4096;
  sim::Simulation sim;
  FabricConfig cfg = testing::test_config();
  cfg.switch_pool_bytes = 64 * 1024;
  cfg.pfc_enabled = true;
  Fabric fabric(sim, cfg);
  std::vector<std::unique_ptr<hv::Node>> nodes;
  std::vector<Hca*> hcas;
  for (int i = 0; i <= kSenders; ++i) {
    nodes.push_back(std::make_unique<hv::Node>(sim, "n" + std::to_string(i),
                                               i == 0 ? kSenders + 2 : 4));
    hcas.push_back(&fabric.add_node(*nodes.back()));
  }
  std::vector<Endpoint> sources;
  std::vector<Endpoint> sinks;
  for (int i = 1; i <= kSenders; ++i) {
    const auto s = static_cast<std::size_t>(i);
    sources.push_back(testing::make_endpoint_on(*nodes[s], *hcas[s], "src"));
    sinks.push_back(testing::make_endpoint_on(*nodes[0], *hcas[0], "dst"));
    Fabric::connect(*sources.back().qp, *sinks.back().qp);
  }
  for (int i = 0; i < kSenders; ++i) {
    const auto s = static_cast<std::size_t>(i);
    for (int m = 0; m < kMessages; ++m) {
      hcas[s + 1]->post_send(
          *sources[s].qp,
          make_wr(sources[s], sinks[s], kLen));
    }
  }
  sim.run();
  for (auto& src : sources) expect_success(*src.send_cq, kMessages);
  EXPECT_GT(sim.metrics().counter("fabric.pfc_pauses").value(), 0u);
  expect_drained(fabric);
}

}  // namespace
}  // namespace resex::fabric
