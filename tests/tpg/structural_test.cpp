#include "tpg/structural.h"

#include <gtest/gtest.h>

#include "tpg/accumulator.h"
#include "tpg/lfsr.h"

namespace fbist::tpg {
namespace {

TEST(StructuralAdder, ExhaustiveWidth4) {
  const auto nl = structural_adder(4);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      const auto y = eval_structural(cc, util::WideWord(4, a), util::WideWord(4, b));
      EXPECT_EQ(y, util::WideWord(4, (a + b) & 0xF)) << a << "+" << b;
    }
  }
}

TEST(StructuralSubtracter, ExhaustiveWidth4) {
  const auto nl = structural_subtracter(4);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      const auto y = eval_structural(cc, util::WideWord(4, a), util::WideWord(4, b));
      EXPECT_EQ(y, util::WideWord(4, (a - b) & 0xF)) << a << "-" << b;
    }
  }
}

TEST(StructuralMultiplier, ExhaustiveWidth4) {
  const auto nl = structural_multiplier(4);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      const auto y = eval_structural(cc, util::WideWord(4, a), util::WideWord(4, b));
      EXPECT_EQ(y, util::WideWord(4, (a * b) & 0xF)) << a << "*" << b;
    }
  }
}

TEST(StructuralLfsr, MatchesBehaviouralExhaustiveWidth4) {
  const std::vector<std::size_t> taps = {0, 3};
  const auto nl = structural_lfsr(4, taps);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const LfsrTpg behav(4, taps);
  for (std::uint64_t s = 0; s < 16; ++s) {
    for (std::uint64_t sig = 0; sig < 16; ++sig) {
      const auto y =
          eval_structural(cc, util::WideWord(4, s), util::WideWord(4, sig));
      EXPECT_EQ(y, behav.step(util::WideWord(4, s), util::WideWord(4, sig)))
          << "s=" << s << " sigma=" << sig;
    }
  }
}

// Randomized cross-verification at datapath widths, all three
// accumulator kinds against their structural twins.
class StructuralEquivTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StructuralEquivTest, AdderEquivalent) {
  const std::size_t w = GetParam();
  AdderTpg behav(w);
  util::Rng rng(w * 101);
  const netlist::Netlist nl = structural_adder(w);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  EXPECT_EQ(verify_structural_equivalence(behav, cc, 200, rng), 0u);
}

TEST_P(StructuralEquivTest, SubtracterEquivalent) {
  const std::size_t w = GetParam();
  SubtracterTpg behav(w);
  util::Rng rng(w * 103);
  const netlist::Netlist nl = structural_subtracter(w);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  EXPECT_EQ(verify_structural_equivalence(behav, cc, 200, rng), 0u);
}

TEST_P(StructuralEquivTest, MultiplierEquivalent) {
  const std::size_t w = GetParam();
  MultiplierTpg behav(w);
  util::Rng rng(w * 107);
  const netlist::Netlist nl = structural_multiplier(w);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  EXPECT_EQ(verify_structural_equivalence(behav, cc, 100, rng), 0u);
}

INSTANTIATE_TEST_SUITE_P(Widths, StructuralEquivTest,
                         ::testing::Values(1, 2, 3, 8, 16, 24));

TEST(Structural, GateCountsScaleAsExpected) {
  // Ripple adder is linear, array multiplier quadratic in width.
  const auto add8 = structural_adder(8);
  const auto add16 = structural_adder(16);
  EXPECT_LT(add16.num_gates(), add8.num_gates() * 3);
  const auto mul8 = structural_multiplier(8);
  const auto mul16 = structural_multiplier(16);
  EXPECT_GT(mul16.num_gates(), mul8.num_gates() * 3);
}

TEST(Structural, RejectsBadArguments) {
  EXPECT_THROW(structural_adder(0), std::invalid_argument);
  EXPECT_THROW(structural_lfsr(4, {}), std::invalid_argument);
  EXPECT_THROW(structural_lfsr(4, {7}), std::invalid_argument);
  const auto nl = structural_adder(4);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  EXPECT_THROW(eval_structural(cc, util::WideWord(3, 0), util::WideWord(4, 0)),
               std::invalid_argument);
}

TEST(Structural, NetlistsAreValidUuts) {
  // The structural units can themselves be units under test: valid,
  // fully observable netlists.
  for (const auto& nl :
       {structural_adder(8), structural_subtracter(8), structural_multiplier(6)}) {
    EXPECT_NO_THROW(nl.validate());
    EXPECT_GT(nl.num_gates(), 0u);
  }
}

}  // namespace
}  // namespace fbist::tpg
