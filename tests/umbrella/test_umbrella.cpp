// The umbrella header must compile standalone and expose the whole API.
#include "resex.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, ExposesEveryLayer) {
  resex::sim::Simulation sim;
  resex::sim::Rng rng(1);
  resex::mem::GuestMemory memory(1);
  EXPECT_EQ(memory.page_count(), 1u);
  EXPECT_GT(resex::finance::price(resex::finance::OptionSpec{}), 0.0);
  resex::core::ScenarioConfig cfg;
  EXPECT_EQ(cfg.policy, resex::core::PolicyKind::kNone);
  resex::fabric::FabricConfig fabric_cfg;
  EXPECT_EQ(fabric_cfg.mtu_bytes, 1024u);
  EXPECT_EQ(resex::hv::kDefaultSlice, 10 * resex::sim::kMillisecond);
}

}  // namespace
