// Quickstart: the smallest end-to-end ResEx program.
//
// Builds the simulated two-node RDMA testbed, runs one latency-sensitive
// BenchEx pair (64 KB buffers, open loop) for half a simulated second, and
// prints the latency profile a user would see on an idle platform.
//
//   $ ./example_quickstart

#include <iostream>

#include "core/testbed.hpp"

int main() {
  using namespace resex;
  using namespace resex::sim::literals;

  // 1. The testbed: two nodes (8- and 4-core) on one switched IB fabric.
  core::Testbed testbed;

  // 2. A BenchEx pair: trading server VM on node A, client VM on node B.
  //    reporting_config() gives the paper's latency-sensitive profile:
  //    64 KB messages, 2000 requests/s, real Black-Scholes processing.
  auto& pair = testbed.deploy_pair(core::reporting_config(), "quickstart");

  // 3. Run half a second of simulated time.
  testbed.sim().run_until(500_ms);

  // 4. Read the results.
  const auto& server = pair.server_metrics();
  const auto& client = pair.client_metrics();

  std::cout << "requests served      : " << server.requests << "\n";
  std::cout << "client latency (mean): " << client.latency_us.mean()
            << " us\n";
  std::cout << "client latency (p99) : " << client.latency_us.percentile(99)
            << " us\n";
  std::cout << "server decomposition : PTime " << server.ptime_us.mean()
            << " + CTime " << server.ctime_us.mean() << " + WTime "
            << server.wtime_us.mean() << " us\n";
  std::cout << "pricing checksum     : " << server.checksum
            << " (deterministic for a fixed seed)\n";
  return 0;
}
