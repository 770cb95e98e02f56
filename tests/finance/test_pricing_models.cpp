#include <gtest/gtest.h>

#include "finance/binomial.hpp"
#include "finance/workload.hpp"

namespace resex::finance {
namespace {

OptionSpec atm() {
  return OptionSpec{.spot = 100.0, .strike = 100.0, .rate = 0.05,
                    .vol = 0.2, .expiry = 1.0, .type = OptionType::kCall};
}

TEST(Binomial, ConvergesToBlackScholesForEuropean) {
  const OptionSpec o = atm();
  const double bs = price(o);
  EXPECT_NEAR(binomial_price(o, 64, ExerciseStyle::kEuropean), bs, 0.1);
  EXPECT_NEAR(binomial_price(o, 512, ExerciseStyle::kEuropean), bs, 0.02);
  EXPECT_NEAR(binomial_price(o, 2048, ExerciseStyle::kEuropean), bs, 0.005);
}

TEST(Binomial, AmericanCallOnNonDividendStockEqualsEuropean) {
  const OptionSpec o = atm();
  EXPECT_NEAR(binomial_price(o, 256, ExerciseStyle::kAmerican),
              binomial_price(o, 256, ExerciseStyle::kEuropean), 1e-10);
}

TEST(Binomial, AmericanPutCarriesEarlyExercisePremium) {
  OptionSpec o = atm();
  o.type = OptionType::kPut;
  o.strike = 120.0;  // deep ITM put: early exercise is valuable
  const double amer = binomial_price(o, 256, ExerciseStyle::kAmerican);
  const double euro = binomial_price(o, 256, ExerciseStyle::kEuropean);
  EXPECT_GT(amer, euro + 0.05);
  // American option is worth at least intrinsic.
  EXPECT_GE(amer, o.strike - o.spot);
}

TEST(Binomial, RejectsBadInputs) {
  EXPECT_THROW((void)binomial_price(atm(), 0, ExerciseStyle::kEuropean),
               BadOption);
  OptionSpec o = atm();
  o.spot = -1.0;
  EXPECT_THROW((void)binomial_price(o, 16, ExerciseStyle::kEuropean),
               BadOption);
}

TEST(CostModel, ScalesWithKindAndCount) {
  const CostModel m;
  EXPECT_LT(m.cost(RequestKind::kQuote, 10),
            m.cost(RequestKind::kTrade, 10));
  EXPECT_LT(m.cost(RequestKind::kTrade, 10),
            m.cost(RequestKind::kRiskReport, 10));
  EXPECT_EQ(m.cost(RequestKind::kQuote, 0), m.base);
  EXPECT_EQ(m.cost(RequestKind::kQuote, 5), m.base + 5 * m.per_quote);
}

TEST(RequestProcessor, DeterministicChecksums) {
  RequestProcessor a(99), b(99);
  const auto ra = a.process(RequestKind::kQuote, 20);
  const auto rb = b.process(RequestKind::kQuote, 20);
  EXPECT_DOUBLE_EQ(ra.checksum, rb.checksum);
  EXPECT_EQ(ra.options_priced, 20u);
}

TEST(RequestProcessor, DifferentSeedsDiffer) {
  RequestProcessor a(1), b(2);
  EXPECT_NE(a.process(RequestKind::kQuote, 20).checksum,
            b.process(RequestKind::kQuote, 20).checksum);
}

TEST(RequestProcessor, TradeRoundTripsImpliedVol) {
  RequestProcessor p(5);
  const auto r = p.process(RequestKind::kTrade, 8);
  // Implied vols are in the generator's range (0.1, 0.6): checksum bounded.
  EXPECT_GT(r.checksum, 8 * 0.1 - 1e-9);
  EXPECT_LT(r.checksum, 8 * 0.6 + 1e-9);
}

TEST(RequestProcessor, CostComesFromModel) {
  const CostModel m;
  RequestProcessor p(1, m);
  EXPECT_EQ(p.process(RequestKind::kRiskReport, 3).cpu_cost,
            m.cost(RequestKind::kRiskReport, 3));
}

}  // namespace
}  // namespace resex::finance
