#include "sim/ternary_sim.h"

#include <gtest/gtest.h>

#include "atpg/podem.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "sim/detects.h"
#include "sim/fault_sim.h"
#include "util/rng.h"

namespace fbist::sim {
namespace {

using netlist::GateType;
using netlist::Netlist;

TestCube cube_of(std::size_t width, std::uint64_t pattern,
                       std::uint64_t care) {
  TestCube c;
  c.pattern = util::WideWord(width, pattern & care);
  c.care = util::WideWord(width, care);
  return c;
}

TEST(TernarySim, UnspecifiedInputsAreX) {
  const auto nl = circuits::make_c17();
  const auto v = ternary_simulate(nl, cube_of(5, 0, 0));
  for (const auto i : nl.inputs()) EXPECT_EQ(v[i], TernaryValue::kX);
}

TEST(TernarySim, ControllingValueDominatesX) {
  // AND with one 0 input gives definite 0 regardless of X.
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kAnd, "g", {a, b});
  nl.mark_output(g);
  // a = 0 specified, b = X.
  const auto v = ternary_simulate(nl, cube_of(2, 0b00, 0b01));
  EXPECT_EQ(v[g], TernaryValue::k0);
  // OR dual.
  Netlist nl2;
  const auto a2 = nl2.add_input("a");
  const auto b2 = nl2.add_input("b");
  const auto g2 = nl2.add_gate(GateType::kOr, "g", {a2, b2});
  nl2.mark_output(g2);
  const auto v2 = ternary_simulate(nl2, cube_of(2, 0b01, 0b01));
  EXPECT_EQ(v2[g2], TernaryValue::k1);
}

TEST(TernarySim, XPropagatesThroughXor) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kXor, "g", {a, b});
  nl.mark_output(g);
  const auto v = ternary_simulate(nl, cube_of(2, 0b01, 0b01));
  EXPECT_EQ(v[g], TernaryValue::kX);
}

TEST(TernarySim, FullySpecifiedMatchesBinarySim) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  LogicSim bin(cc);
  util::Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    const auto pat = util::WideWord::random(nl.num_inputs(), rng);
    TestCube full;
    full.pattern = pat;
    full.care = util::WideWord(nl.num_inputs());
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) full.care.set_bit(i, true);
    const auto tern = ternary_simulate(nl, full);
    const auto exact = bin.simulate_single(pat);
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      ASSERT_NE(tern[n], TernaryValue::kX);
      EXPECT_EQ(tern[n] == TernaryValue::k1, exact[n]) << "net " << n;
    }
  }
}

TEST(TernarySim, PodemCubesRobustlyDetectTheirFaults) {
  // The defining property: an unfilled PODEM cube must detect its
  // target fault under ANY X-fill — exactly what cube_robustly_detects
  // certifies.
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  atpg::Podem podem(cc);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const auto r = podem.generate(fl[fid]);
    ASSERT_EQ(r.status, atpg::PodemStatus::kTestFound);
    TestCube cube{r.pattern, r.care};
    EXPECT_TRUE(cube_robustly_detects(nl, cube, fl[fid]))
        << fault_name(nl, fl[fid]);
  }
}

TEST(TernarySim, RobustDetectionImpliesEveryFillDetects) {
  // Cross-check the certificate against exhaustive fills on a small
  // circuit: whenever the ternary check says "robust", every completion
  // of the X bits must detect the fault in binary simulation.
  circuits::GeneratorSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 4;
  spec.num_gates = 40;
  spec.seed = 99;
  const auto nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);
  atpg::Podem podem(cc);

  for (std::size_t fid = 0; fid < fl.size() && fid < 30; ++fid) {
    const auto r = podem.generate(fl[fid]);
    if (r.status != atpg::PodemStatus::kTestFound) continue;
    TestCube cube{r.pattern, r.care};
    if (!cube_robustly_detects(nl, cube, fl[fid])) continue;

    // Enumerate all fills of the X bits (cap at 2^6 fills).
    std::vector<std::size_t> x_bits;
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      if (!cube.care.get_bit(i)) x_bits.push_back(i);
    }
    if (x_bits.size() > 6) continue;
    for (std::uint64_t fill = 0; fill < (1ull << x_bits.size()); ++fill) {
      util::WideWord pat = cube.pattern;
      for (std::size_t b = 0; b < x_bits.size(); ++b) {
        pat.set_bit(x_bits[b], (fill >> b) & 1);
      }
      EXPECT_TRUE(detects(fsim, pat, fid))
          << fault_name(nl, fl[fid]) << " fill " << fill;
    }
  }
}

TEST(TernarySim, WidthMismatchRejected) {
  const auto nl = circuits::make_c17();
  EXPECT_THROW(ternary_simulate(nl, cube_of(4, 0, 0)), std::invalid_argument);
}

TEST(TernarySim, FaultOnInputForcedEvenIfUnspecified) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto g = nl.add_gate(GateType::kBuf, "g", {a});
  nl.mark_output(g);
  const fault::Fault f{a, true};
  const auto v = ternary_simulate_faulty(nl, cube_of(1, 0, 0), f);
  EXPECT_EQ(v[g], TernaryValue::k1);
}

TEST(TernarySim, ClassSharesCompiledFormWithLogicSim) {
  // The TernarySim class borrows the same CompiledCircuit other
  // engines read; results must match the one-shot wrappers bit for bit.
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  LogicSim lsim(cc);
  TernarySim tsim(cc);
  EXPECT_EQ(&tsim.compiled(), &lsim.compiled());

  const auto fl = fault::FaultList::collapsed(cc);
  util::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    // c432 has 36 inputs, so one 64-bit draw covers the cube.
    const TestCube cube =
        cube_of(nl.num_inputs(), rng.next_u64(), rng.next_u64());
    EXPECT_EQ(tsim.simulate(cube), ternary_simulate(nl, cube));
    const auto& f = fl[rng.next_below(fl.size())];
    EXPECT_EQ(tsim.simulate_faulty(cube, f),
              ternary_simulate_faulty(nl, cube, f));
    EXPECT_EQ(tsim.robustly_detects(cube, f),
              cube_robustly_detects(nl, cube, f));
  }
}

}  // namespace
}  // namespace fbist::sim
