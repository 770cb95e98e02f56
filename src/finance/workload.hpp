#pragma once
// The exchange-side request-processing kernel used by BenchEx.
//
// Each incoming transaction request names a kind and an instrument count;
// the processor really runs the corresponding pricing math (so the workload
// is genuine), and reports the *simulated* CPU cost the request should be
// charged, from a calibrated per-kind cost model (we cannot use host
// wall-clock: the simulation must stay deterministic).

#include <cstdint>

#include "finance/binomial.hpp"
#include "finance/black_scholes.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace resex::finance {

enum class RequestKind : std::uint8_t {
  kQuote = 0,       // price + greeks per instrument
  kTrade = 1,       // price + implied-vol round trip (heavier)
  kRiskReport = 2,  // binomial revaluation (heaviest)
};

/// Simulated-CPU cost model, loosely calibrated to the math each kind runs
/// on the paper's 1.86 GHz Xeons.
struct CostModel {
  sim::SimDuration base = 5 * sim::kMicrosecond;
  sim::SimDuration per_quote = 800;        // ns per instrument
  sim::SimDuration per_trade = 2500;       // ns per instrument
  sim::SimDuration per_risk = 15000;       // ns per instrument

  [[nodiscard]] sim::SimDuration cost(RequestKind kind,
                                      std::uint32_t instruments) const;
};

struct ProcessingResult {
  double checksum = 0.0;  // accumulates priced values; pins down determinism
  std::uint32_t options_priced = 0;
  sim::SimDuration cpu_cost = 0;
};

/// Deterministic request processor: instrument parameters are drawn from an
/// internal seeded stream, so the same request sequence always produces the
/// same checksums.
class RequestProcessor {
 public:
  explicit RequestProcessor(std::uint64_t seed = 1, CostModel model = {})
      : rng_(sim::Rng::stream(seed, 0xF1A)), model_(model) {}

  [[nodiscard]] ProcessingResult process(RequestKind kind,
                                         std::uint32_t instruments);

  [[nodiscard]] const CostModel& cost_model() const noexcept { return model_; }

 private:
  [[nodiscard]] OptionSpec next_instrument();

  sim::Rng rng_;
  CostModel model_;
};

}  // namespace resex::finance
