#pragma once
// resex::runner — parallel experiment execution with multi-seed replication
// and structured result export. Umbrella header.
//
// The pieces (each usable on its own):
//   ThreadPool     fixed-size FIFO worker pool + exception-safe parallel_for
//   run_trials     the one trial loop: N derived-seed replicates per point,
//                  each handed a TrialContext, outcomes in (point, replicate)
//                  order
//   Sweep          cartesian grid builder over ScenarioConfig, turned into
//                  trials by scenario_points
//   ResultSink     aligned tables, CSV, deterministic JSON (resex.runner/v1)
//   RunnerOptions  the --jobs/--seeds/--seed/--json/--csv CLI surface
//
// Because every trial runs its own single-threaded deterministic simulation
// and results are stored by trial index, a run with any --jobs value
// produces byte-identical per-trial results to a serial run.

#include "runner/options.hpp"      // IWYU pragma: export
#include "runner/result_sink.hpp"  // IWYU pragma: export
#include "runner/sweep.hpp"        // IWYU pragma: export
#include "runner/thread_pool.hpp"  // IWYU pragma: export
#include "runner/trial.hpp"        // IWYU pragma: export
