#include "finance/workload.hpp"

namespace resex::finance {

sim::SimDuration CostModel::cost(RequestKind kind,
                                 std::uint32_t instruments) const {
  switch (kind) {
    case RequestKind::kQuote: return base + per_quote * instruments;
    case RequestKind::kTrade: return base + per_trade * instruments;
    case RequestKind::kRiskReport: return base + per_risk * instruments;
  }
  return base;
}

OptionSpec RequestProcessor::next_instrument() {
  OptionSpec o;
  o.spot = rng_.uniform(50.0, 150.0);
  o.strike = o.spot * rng_.uniform(0.8, 1.2);
  o.rate = rng_.uniform(0.01, 0.08);
  o.vol = rng_.uniform(0.1, 0.6);
  o.expiry = rng_.uniform(0.05, 2.0);
  o.type = rng_.chance(0.5) ? OptionType::kCall : OptionType::kPut;
  return o;
}

ProcessingResult RequestProcessor::process(RequestKind kind,
                                           std::uint32_t instruments) {
  ProcessingResult r;
  r.cpu_cost = model_.cost(kind, instruments);
  for (std::uint32_t i = 0; i < instruments; ++i) {
    const OptionSpec o = next_instrument();
    switch (kind) {
      case RequestKind::kQuote: {
        const Greeks g = greeks(o);
        r.checksum += price(o) + g.delta + 0.01 * g.vega;
        break;
      }
      case RequestKind::kTrade: {
        const double p = price(o);
        r.checksum += implied_vol(o, p);  // round-trips to o.vol
        break;
      }
      case RequestKind::kRiskReport: {
        r.checksum +=
            binomial_price(o, 64, ExerciseStyle::kAmerican);
        break;
      }
    }
    ++r.options_priced;
  }
  return r;
}

}  // namespace resex::finance
