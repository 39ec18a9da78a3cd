#include "campaign/spec.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "campaign/runner.h"

namespace fbist::campaign {
namespace {

TEST(CampaignSpec, ExpandIsCanonicalCrossProduct) {
  CampaignSpec spec;
  spec.circuits = {"c432", "c880"};
  spec.tpgs = {tpg::TpgKind::kAdder, tpg::TpgKind::kLfsr};
  spec.cycle_values = {16, 64};
  spec.solvers = {reseed::SolverChoice::kExact};
  const auto runs = spec.expand();
  ASSERT_EQ(runs.size(), 8u);
  // Circuit-major, then TPG, then T, then solver.
  EXPECT_EQ(runs[0].circuit, "c432");
  EXPECT_EQ(runs[0].tpg, tpg::TpgKind::kAdder);
  EXPECT_EQ(runs[0].cycles, 16u);
  EXPECT_EQ(runs[1].cycles, 64u);
  EXPECT_EQ(runs[2].tpg, tpg::TpgKind::kLfsr);
  EXPECT_EQ(runs[4].circuit, "c880");
  EXPECT_EQ(run_label(runs[0]), "c432/adder/T16/exact");
}

TEST(CampaignSpec, DefaultsApply) {
  CampaignSpec spec;
  spec.circuits = {"c17"};
  const auto runs = spec.expand();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].tpg, tpg::TpgKind::kAdder);
  EXPECT_EQ(runs[0].cycles, 64u);
  EXPECT_EQ(runs[0].solver, reseed::SolverChoice::kExact);
}

TEST(CampaignSpec, ValidateRejectsDegenerateSpecs) {
  CampaignSpec spec;
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // no circuits
  spec.circuits = {"c17"};
  EXPECT_NO_THROW(spec.validate());
  spec.cycle_values = {0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // T == 0
  spec.cycle_values = {64};
  spec.tpgs.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

/// The message of the std::invalid_argument `f` throws ("" if none).
template <typename F>
std::string invalid_argument_of(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// T is at most cover::DetectionMatrix::kMaxCycles; a larger T in a spec
// file fails the parse, naming the value and the limit.
TEST(CampaignSpec, SpecFileCyclesAboveTheLimitAreRejected) {
  const std::string what = invalid_argument_of(
      [] { parse_spec_string("circuits c17\ncycles 64 65536\n"); });
  EXPECT_NE(what.find("T 65536 exceeds the limit of 65535"), std::string::npos)
      << what;
  EXPECT_NO_THROW(parse_spec_string("circuits c17\ncycles 64 65535\n"));
}

// A spec assembled from flags (as `fbist campaign --cycles` builds it)
// is rejected before any run starts, the valid T = 64 run included.
TEST(CampaignSpec, FlagCyclesAboveTheLimitStopTheCampaignBeforeAnyRun) {
  CampaignSpec spec;
  spec.circuits = {"c17"};
  spec.cycle_values = {64, 65536};
  const std::string what = invalid_argument_of([&] { run_campaign(spec); });
  EXPECT_NE(what.find("T 65536 exceeds the limit of 65535"), std::string::npos)
      << what;
}

TEST(CampaignSpec, ParsesTextFormat) {
  const auto spec = parse_spec_string(
      "# sweep\n"
      "circuits c432 c880   # trailing comment\n"
      "circuits s1238\n"
      "tpgs adder lfsr\n"
      "cycles 16 64\n"
      "\n"
      "solvers greedy\n");
  EXPECT_EQ(spec.circuits,
            (std::vector<std::string>{"c432", "c880", "s1238"}));
  ASSERT_EQ(spec.tpgs.size(), 2u);
  EXPECT_EQ(spec.tpgs[1], tpg::TpgKind::kLfsr);
  EXPECT_EQ(spec.cycle_values, (std::vector<std::size_t>{16, 64}));
  ASSERT_EQ(spec.solvers.size(), 1u);
  EXPECT_EQ(spec.solvers[0], reseed::SolverChoice::kGreedy);
}

TEST(CampaignSpec, FirstKeyLineReplacesDefaults) {
  const auto spec = parse_spec_string(
      "circuits c17\n"
      "tpgs multiplier\n");
  ASSERT_EQ(spec.tpgs.size(), 1u);
  EXPECT_EQ(spec.tpgs[0], tpg::TpgKind::kMultiplier);
  EXPECT_EQ(spec.cycle_values, (std::vector<std::size_t>{64}));  // default kept
}

TEST(CampaignSpec, ParseErrorsCarryLineNumbers) {
  try {
    parse_spec_string("circuits c17\nwibble x\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_spec_string("circuits c17\ncycles nope\n"),
               std::runtime_error);
  EXPECT_THROW(parse_spec_string("circuits c17\ncycles 0\n"),
               std::runtime_error);
  // Signed counts are rejected, not wrapped (-1) or sign-stripped (+8).
  for (const char* bad : {"-1", "+8"}) {
    try {
      parse_spec_string(std::string("circuits c17\ncycles 4 ") + bad + "\n");
      FAIL() << "accepted cycles " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << bad;
    }
  }
  EXPECT_THROW(parse_spec_string(""), std::invalid_argument);  // no circuits
  EXPECT_THROW(parse_spec_file("/nonexistent/spec.txt"), std::runtime_error);
}

TEST(CampaignSpec, TpgAndSolverNamesRoundTrip) {
  for (const auto kind :
       {tpg::TpgKind::kAdder, tpg::TpgKind::kSubtracter,
        tpg::TpgKind::kMultiplier, tpg::TpgKind::kLfsr}) {
    EXPECT_EQ(parse_tpg_kind(tpg::tpg_kind_name(kind)), kind);
  }
  for (const auto s :
       {reseed::SolverChoice::kExact, reseed::SolverChoice::kGreedy}) {
    EXPECT_EQ(parse_solver(solver_name(s)), s);
  }
  EXPECT_THROW(parse_tpg_kind("marsaglia"), std::runtime_error);
  EXPECT_THROW(parse_solver("lingo"), std::runtime_error);
}

TEST(CampaignSpec, BenchPathDetection) {
  EXPECT_TRUE(is_bench_path("foo.bench"));
  EXPECT_TRUE(is_bench_path("dir/c432"));
  EXPECT_FALSE(is_bench_path("c432"));
  EXPECT_EQ(load_circuit("c17").num_inputs(), 5u);
  EXPECT_THROW(load_circuit("/nonexistent/foo.bench"), std::exception);
}

}  // namespace
}  // namespace fbist::campaign
