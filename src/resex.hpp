#pragma once
// Umbrella header: the full public API of the ResEx reproduction.
//
//   #include "resex.hpp"
//
// pulls in the simulation kernel, all substrates (guest memory, hypervisor,
// fabric, IBMon, finance, traces, BenchEx) and the ResEx core. Individual
// module headers can be included directly for faster builds.

#include "sim/report.hpp"      // IWYU pragma: export
#include "sim/rng.hpp"         // IWYU pragma: export
#include "sim/simulation.hpp"  // IWYU pragma: export
#include "sim/stats.hpp"       // IWYU pragma: export
#include "sim/task.hpp"        // IWYU pragma: export
#include "sim/time.hpp"        // IWYU pragma: export

#include "mem/guest_memory.hpp"  // IWYU pragma: export
#include "mem/tpt.hpp"           // IWYU pragma: export

#include "hv/domain.hpp"          // IWYU pragma: export
#include "hv/node.hpp"            // IWYU pragma: export
#include "hv/schedule_model.hpp"  // IWYU pragma: export
#include "hv/scheduler.hpp"       // IWYU pragma: export
#include "hv/vcpu.hpp"            // IWYU pragma: export

#include "fabric/channel.hpp"           // IWYU pragma: export
#include "fabric/completion_queue.hpp"  // IWYU pragma: export
#include "fabric/endpoint.hpp"          // IWYU pragma: export
#include "fabric/fabric.hpp"            // IWYU pragma: export
#include "fabric/hca.hpp"               // IWYU pragma: export
#include "fabric/queue_pair.hpp"        // IWYU pragma: export
#include "fabric/types.hpp"             // IWYU pragma: export
#include "fabric/verbs.hpp"             // IWYU pragma: export

#include "ibmon/ibmon.hpp"  // IWYU pragma: export

#include "finance/binomial.hpp"       // IWYU pragma: export
#include "finance/black_scholes.hpp"  // IWYU pragma: export
#include "finance/workload.hpp"       // IWYU pragma: export

#include "trace/workload.hpp"  // IWYU pragma: export

#include "benchex/config.hpp"   // IWYU pragma: export
#include "benchex/service.hpp"  // IWYU pragma: export

#include "core/controller.hpp"  // IWYU pragma: export
#include "core/detector.hpp"    // IWYU pragma: export
#include "core/experiment.hpp"  // IWYU pragma: export
#include "core/policies.hpp"    // IWYU pragma: export
#include "core/resos.hpp"       // IWYU pragma: export
#include "core/testbed.hpp"     // IWYU pragma: export

#include "runner/runner.hpp"  // IWYU pragma: export
