// Generator-driven property test for the CNF emission layer (cnf.h).
//
// The oracle is sim::LogicSim: for any circuit and any primary-input
// vector, unit-assuming the PI literals must force the SAT model to
// *exactly* the simulator's per-net values — the Tseitin clauses leave
// no freedom once the inputs are pinned.  A single mismatch on any net
// means some gate's clause emission disagrees with its simulation
// semantics, so this is a clause-emission oracle for every gate kind.
#include "atpg/cnf.h"

#include <gtest/gtest.h>

#include "atpg/solver.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "netlist/compiled.h"
#include "sim/logic_sim.h"
#include "util/rng.h"
#include "util/wideword.h"

namespace fbist::atpg {
namespace {

/// PI unit assumptions selecting `pattern` (bit i -> inputs()[i]).
/// With a fresh solver, net n's frame-0 variable is exactly n.
std::vector<SatLit> pi_assumptions(const netlist::CompiledCircuit& cc,
                                   const util::WideWord& pattern) {
  std::vector<SatLit> a;
  a.reserve(cc.num_inputs());
  for (std::size_t i = 0; i < cc.num_inputs(); ++i) {
    a.push_back(mk_lit(static_cast<SatVar>(cc.inputs()[i]),
                       /*neg=*/!pattern.get_bit(i)));
  }
  return a;
}

/// Asserts the model under PI assumptions equals the simulator on every
/// net, for each given pattern.
void expect_model_matches_sim(const netlist::Netlist& nl,
                              const std::vector<util::WideWord>& patterns) {
  const netlist::CompiledCircuit cc(nl);
  Solver solver;
  CircuitCnf frames(cc, solver);
  frames.add_timeframe();
  sim::LogicSim lsim(cc);

  for (const util::WideWord& p : patterns) {
    const std::vector<bool> expect = lsim.simulate_single(p);
    ASSERT_EQ(solver.solve(pi_assumptions(cc, p)), SolveStatus::kSat);
    for (std::size_t n = 0; n < cc.num_nets(); ++n) {
      const auto net = static_cast<netlist::NetId>(n);
      ASSERT_EQ(solver.value(frames.var(0, net)), expect[n])
          << "net " << nl.gate(net).name << " under pattern " << p.to_hex();
    }
  }
}

std::vector<util::WideWord> exhaustive_patterns(std::size_t inputs) {
  std::vector<util::WideWord> out;
  for (std::uint64_t v = 0; v < (1ull << inputs); ++v) {
    out.emplace_back(inputs, v);
  }
  return out;
}

std::vector<util::WideWord> random_patterns(std::size_t inputs,
                                            std::size_t count,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<util::WideWord> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(util::WideWord::random(inputs, rng));
  }
  return out;
}

// One instance of every gate kind (including a 3-input XOR/XNOR, which
// exercises the aux-variable chain, and wide AND/NOR), checked against
// the simulator on every input assignment.
TEST(CnfProperty, EveryGateKindMatchesSimExhaustively) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_input("c");
  const auto d = nl.add_input("d");
  using netlist::GateType;
  const auto g_and = nl.add_gate(GateType::kAnd, "g_and", {a, b});
  const auto g_or = nl.add_gate(GateType::kOr, "g_or", {b, c});
  const auto g_nand = nl.add_gate(GateType::kNand, "g_nand", {a, c, d});
  const auto g_nor = nl.add_gate(GateType::kNor, "g_nor", {g_and, d});
  const auto g_xor = nl.add_gate(GateType::kXor, "g_xor", {a, b, c});
  const auto g_xnor = nl.add_gate(GateType::kXnor, "g_xnor", {g_or, d, a});
  const auto g_not = nl.add_gate(GateType::kNot, "g_not", {g_nand});
  const auto g_buf = nl.add_gate(GateType::kBuf, "g_buf", {g_xor});
  const auto g_wide =
      nl.add_gate(GateType::kAnd, "g_wide", {a, b, c, d, g_xnor});
  nl.mark_output(g_nor);
  nl.mark_output(g_not);
  nl.mark_output(g_buf);
  nl.mark_output(g_wide);

  expect_model_matches_sim(nl, exhaustive_patterns(4));
}

TEST(CnfProperty, C17MatchesSimExhaustively) {
  expect_model_matches_sim(circuits::make_c17(), exhaustive_patterns(5));
}

TEST(CnfProperty, RandomCircuitsMatchSimOnRandomPatterns) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    circuits::GeneratorSpec spec;
    spec.num_inputs = 14;
    spec.num_outputs = 6;
    spec.num_gates = 120;
    spec.xor_share = 0.35;  // lean on the XOR chain encoding
    spec.seed = seed;
    const auto nl = circuits::generate(spec);
    expect_model_matches_sim(nl, random_patterns(14, 24, seed * 7 + 1));
  }
}

// Pinning the inputs and additionally forcing one PO to the *opposite*
// of its simulated value must be UNSAT — the model freedom really is
// zero, not just unexplored.
TEST(CnfProperty, ForcingAnOutputWrongIsUnsat) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_gates = 80;
  spec.seed = 5;
  const auto nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl);
  Solver loaded;
  CircuitCnf frames(cc, loaded);
  frames.add_timeframe();
  sim::LogicSim lsim(cc);

  for (const util::WideWord& p : random_patterns(10, 8, 99)) {
    const std::vector<bool> expect = lsim.simulate_single(p);
    for (const netlist::NetId po : cc.outputs()) {
      Solver solver = loaded;  // a fresh copy per output, as SatEngine does
      std::vector<SatLit> a = pi_assumptions(cc, p);
      a.push_back(frames.lit(0, po, /*neg=*/expect[po]));
      EXPECT_EQ(solver.solve(a), SolveStatus::kUnsat);
    }
  }
}

// Timeframe expansion allocates disjoint variables per frame: the same
// PI pattern on frame 0 and its complement on frame 1 coexist in one
// model, each frame matching the simulator independently.
TEST(CnfProperty, TwoTimeframesAreIndependentCopies) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  Solver solver;
  CircuitCnf frames(cc, solver);
  ASSERT_EQ(frames.add_timeframe(), 0u);
  ASSERT_EQ(frames.add_timeframe(), 1u);
  sim::LogicSim lsim(cc);

  const util::WideWord p0(5, 0b10110);
  util::WideWord p1 = p0;
  for (std::size_t i = 0; i < 5; ++i) p1.set_bit(i, !p1.get_bit(i));

  std::vector<SatLit> a;
  for (std::size_t i = 0; i < 5; ++i) {
    a.push_back(
        mk_lit(frames.var(0, cc.inputs()[i]), /*neg=*/!p0.get_bit(i)));
    a.push_back(
        mk_lit(frames.var(1, cc.inputs()[i]), /*neg=*/!p1.get_bit(i)));
  }
  ASSERT_EQ(solver.solve(a), SolveStatus::kSat);
  const auto e0 = lsim.simulate_single(p0);
  const auto e1 = lsim.simulate_single(p1);
  for (std::size_t n = 0; n < cc.num_nets(); ++n) {
    const auto net = static_cast<netlist::NetId>(n);
    EXPECT_EQ(solver.value(frames.var(0, net)), e0[n]);
    EXPECT_EQ(solver.value(frames.var(1, net)), e1[n]);
  }
}

}  // namespace
}  // namespace fbist::atpg
