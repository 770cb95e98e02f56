#pragma once
// Compatibility alias: the BenchEx service lives in benchex/service.hpp.
// It exists only because the benchmark's perfbench/probes.cpp includes this
// header and names cluster::Service, and perfbench/ changes only together
// with the benchmark. Nothing else may include it.

#include "benchex/service.hpp"

namespace resex::cluster {

using Service = benchex::Service;

}  // namespace resex::cluster
