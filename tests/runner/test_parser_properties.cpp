// Randomized properties of the two text front ends every bench shares:
// `--faults` specs (fault::FaultPlan) and the runner command line
// (runner::parse_options). Seeded, so a failure reproduces; the message
// carries the input that broke.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <typeinfo>
#include <vector>

#include "fault/plan.hpp"
#include "runner/options.hpp"

namespace resex {
namespace {

using fault::FaultPlan;

// --- FaultPlan: to_string and parse are inverses ------------------------------

/// Field-wise equality over every directive kind, in order.
void expect_same_plan(const FaultPlan& a, const FaultPlan& b,
                      const std::string& spec) {
  EXPECT_EQ(a.drop_rate, b.drop_rate) << spec;
  EXPECT_EQ(a.corrupt_rate, b.corrupt_rate) << spec;
  const auto flap = [](const fault::LinkFlap& f) {
    return std::tie(f.at, f.duration, f.channel);
  };
  const auto stall = [](const fault::HcaStall& s) {
    return std::tie(s.at, s.duration, s.hca);
  };
  const auto ctl = [](const fault::ControlDelay& d) {
    return std::tie(d.at, d.duration, d.extra);
  };
  const auto squeeze = [](const fault::BufferSqueeze& q) {
    return std::tie(q.at, q.duration, q.pkts, q.channel);
  };
  ASSERT_EQ(a.flaps.size(), b.flaps.size()) << spec;
  ASSERT_EQ(a.stalls.size(), b.stalls.size()) << spec;
  ASSERT_EQ(a.control_delays.size(), b.control_delays.size()) << spec;
  ASSERT_EQ(a.squeezes.size(), b.squeezes.size()) << spec;
  for (std::size_t i = 0; i < a.flaps.size(); ++i) {
    EXPECT_EQ(flap(a.flaps[i]), flap(b.flaps[i])) << spec;
  }
  for (std::size_t i = 0; i < a.stalls.size(); ++i) {
    EXPECT_EQ(stall(a.stalls[i]), stall(b.stalls[i])) << spec;
  }
  for (std::size_t i = 0; i < a.control_delays.size(); ++i) {
    EXPECT_EQ(ctl(a.control_delays[i]), ctl(b.control_delays[i])) << spec;
  }
  for (std::size_t i = 0; i < a.squeezes.size(); ++i) {
    EXPECT_EQ(squeeze(a.squeezes[i]), squeeze(b.squeezes[i])) << spec;
  }
}

TEST(ParserProperties, GeneratedFaultPlansRoundTripThroughToString) {
  std::mt19937_64 rng(20261019u);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  // Any nanosecond time up to 100 s, and a duration of at least 1 ns.
  const auto time = [&] {
    return static_cast<sim::SimTime>(pick(100'000'000'001ULL));
  };
  const auto duration = [&] {
    return static_cast<sim::SimDuration>(1 + pick(100'000'000'000ULL));
  };
  const auto probability = [&] {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  };
  // Channel patterns: substrings and globs, never a ',' or ':' separator.
  const std::string channels[] = {"",        "A/up", "n*/up", "sw0->sw?",
                                  "/down",   "n1?",  "*",     "sw3->sw12"};

  for (int iter = 0; iter < 2000; ++iter) {
    FaultPlan plan;
    if (pick(2) == 0) plan.drop_rate = probability();
    if (pick(2) == 0) plan.corrupt_rate = probability();
    for (auto n = pick(3); n > 0; --n) {
      plan.flaps.push_back({time(), duration(), channels[pick(8)]});
    }
    for (auto n = pick(3); n > 0; --n) {
      const auto hca = static_cast<std::int32_t>(pick(65)) - 1;  // -1 = all
      plan.stalls.push_back({time(), duration(), hca});
    }
    for (auto n = pick(3); n > 0; --n) {
      plan.control_delays.push_back({time(), duration(), duration()});
    }
    for (auto n = pick(3); n > 0; --n) {
      const auto pkts = static_cast<std::uint32_t>(1 + pick(1u << 20));
      plan.squeezes.push_back({time(), duration(), pkts, channels[pick(8)]});
    }
    const std::string spec = plan.to_string();
    const FaultPlan again = FaultPlan::parse(spec);
    expect_same_plan(plan, again, spec);
    EXPECT_EQ(again.any(), plan.any()) << spec;
    if (::testing::Test::HasFailure()) return;  // one counterexample is enough
  }
}

// --- parse_options: returns or throws std::invalid_argument -------------------

TEST(ParserProperties, ParseOptionsReturnsOrThrowsInvalidArgumentOnly) {
  // Every flag the runner knows, and values that are valid for some flag,
  // malformed for most, out of range, or flags themselves.
  const std::vector<std::string> flags = {
      "--help",       "-h",          "--jobs",         "-j",
      "--seeds",      "--seed",      "--json",         "--csv",
      "--trace",      "--metrics-json", "--metrics-period", "--faults",
      "--buf-pkts",   "--ecn-kmin",  "--ecn-kmax",     "--buf-bytes",
      "--pool-alpha", "--pfc",       "--qos",          "--sl-vl-map",
      "--vl-weights", "--vl-hi-limit", "--routing",    "--ecmp-seed",
      "--vl-shift",   "--coll-ranks", "--coll-bytes",  "--coll-chunk",
      "--coll-algo",  "--coll-iters", "--bogus",       "-x"};
  const std::vector<std::string> values = {
      "",       "0",       "1",        "-1",        "2",         "8",
      "64",     "4096",    "0.5",      "1e308",     "-0",        "nan",
      "inf",    "18446744073709551616", "abc",      "=",         ",",
      "4,1",    "0,1,2,3,4", "0:1",    "ecmp",      "adaptive",  "static",
      "ring",   "allgather", "bcast",  "drop=0.01", "flap=1:2",  "ctl=1:2",
      "frobnicate=1", "squeeze=0:1:0", "out.json", "--jobs",   " "};
  std::mt19937_64 rng(20261019u);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };

  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    std::vector<std::string> args = {"bench"};
    for (auto n = pick(7); n > 0; --n) {
      switch (pick(4)) {
        case 0:  // flag alone (a value may follow as the next token)
          args.push_back(flags[pick(flags.size())]);
          break;
        case 1:  // flag then value
          args.push_back(flags[pick(flags.size())]);
          args.push_back(values[pick(values.size())]);
          break;
        case 2:  // flag=value
          args.push_back(flags[pick(flags.size())] + "=" +
                         values[pick(values.size())]);
          break;
        default:  // a stray value
          args.push_back(values[pick(values.size())]);
      }
    }
    std::vector<const char*> argv;
    for (const auto& a : args) argv.push_back(a.c_str());
    // Half the runs parse for a bench that reads only some flags.
    std::vector<std::string_view> reads;
    for (const auto& f : flags) {
      if (pick(2) == 0) reads.push_back(f);
    }
    const bool restricted = pick(2) == 0;

    std::string line;
    for (const auto& a : args) line += " '" + a + "'";
    try {
      if (restricted) {
        (void)runner::parse_options(
            static_cast<int>(argv.size()), argv.data(),
            std::span<const std::string_view>(reads));
      } else {
        (void)runner::parse_options(static_cast<int>(argv.size()),
                                    argv.data());
      }
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++rejected;  // the documented rejection
    } catch (const std::exception& e) {
      FAIL() << "argv" << line << " threw " << typeid(e).name() << ": "
             << e.what();
    } catch (...) {
      FAIL() << "argv" << line << " threw a non-std exception";
    }
  }
  // The generator reaches both outcomes, not only the unknown-flag error.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace resex
