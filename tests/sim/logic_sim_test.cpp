#include "sim/logic_sim.h"

#include <gtest/gtest.h>

#include "circuits/generator.h"
#include "circuits/registry.h"
#include "sim/reference_sim.h"

namespace fbist::sim {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

// Naive per-pattern reference evaluator.
std::vector<bool> reference_eval(const Netlist& nl, const std::vector<bool>& pi) {
  std::vector<bool> v(nl.num_nets(), false);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) v[nl.inputs()[i]] = pi[i];
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const auto& g = nl.gate(id);
    if (g.type == GateType::kInput) continue;
    bool r = v[g.fanin[0]];
    switch (g.type) {
      case GateType::kBuf: break;
      case GateType::kNot: r = !r; break;
      case GateType::kAnd:
      case GateType::kNand:
        for (std::size_t i = 1; i < g.fanin.size(); ++i) r = r && v[g.fanin[i]];
        if (g.type == GateType::kNand) r = !r;
        break;
      case GateType::kOr:
      case GateType::kNor:
        for (std::size_t i = 1; i < g.fanin.size(); ++i) r = r || v[g.fanin[i]];
        if (g.type == GateType::kNor) r = !r;
        break;
      case GateType::kXor:
      case GateType::kXnor:
        for (std::size_t i = 1; i < g.fanin.size(); ++i) r = r != v[g.fanin[i]];
        if (g.type == GateType::kXnor) r = !r;
        break;
      default: break;
    }
    v[id] = r;
  }
  return v;
}

TEST(EvalGate, TruthTables) {
  const Word a = 0b1100, b = 0b1010;
  Word in[2] = {a, b};
  EXPECT_EQ(eval_gate(GateType::kAnd, in, 2) & 0xF, 0b1000u);
  EXPECT_EQ(eval_gate(GateType::kNand, in, 2) & 0xF, 0b0111u);
  EXPECT_EQ(eval_gate(GateType::kOr, in, 2) & 0xF, 0b1110u);
  EXPECT_EQ(eval_gate(GateType::kNor, in, 2) & 0xF, 0b0001u);
  EXPECT_EQ(eval_gate(GateType::kXor, in, 2) & 0xF, 0b0110u);
  EXPECT_EQ(eval_gate(GateType::kXnor, in, 2) & 0xF, 0b1001u);
  EXPECT_EQ(eval_gate(GateType::kBuf, in, 1) & 0xF, a & 0xF);
  EXPECT_EQ(eval_gate(GateType::kNot, in, 1) & 0xF, ~a & 0xF);
}

TEST(EvalGate, WideFanin) {
  Word in[5] = {~0ull, ~0ull, ~0ull, ~0ull, 0b1};
  EXPECT_EQ(eval_gate(GateType::kAnd, in, 5), 0b1ull);
  EXPECT_EQ(eval_gate(GateType::kOr, in, 5), ~0ull);
}

TEST(LogicSim, C17KnownVector) {
  // All-ones input: every NAND of ones -> 0 at G10/G11, then
  // G16 = NAND(1, 0) = 1, G19 = NAND(0, 1) = 1, G22 = NAND(0,1)=1,
  // G23 = NAND(1,1) = 0.
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  LogicSim sim(cc);
  util::WideWord pat(5);
  for (std::size_t i = 0; i < 5; ++i) pat.set_bit(i, true);
  const auto resp = sim.output_response(pat);
  EXPECT_TRUE(resp.get_bit(0));   // G22
  EXPECT_FALSE(resp.get_bit(1));  // G23
}

TEST(LogicSim, MatchesReferenceOnC17Exhaustive) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  LogicSim sim(cc);
  for (unsigned v = 0; v < 32; ++v) {
    std::vector<bool> pi(5);
    util::WideWord pat(5);
    for (std::size_t i = 0; i < 5; ++i) {
      pi[i] = (v >> i) & 1;
      pat.set_bit(i, pi[i]);
    }
    const auto ref = reference_eval(nl, pi);
    const auto got = sim.simulate_single(pat);
    EXPECT_EQ(got, ref) << "input " << v;
  }
}

TEST(LogicSim, ParallelMatchesSerialOnGenerated) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 14;
  spec.num_outputs = 6;
  spec.num_gates = 150;
  spec.seed = 77;
  const Netlist nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  LogicSim sim(cc);

  util::Rng rng(123);
  const PatternSet ps = PatternSet::random(14, 150, rng);
  const auto blocks = sim.simulate(ps);
  ASSERT_EQ(blocks.size(), 3u);

  for (std::size_t p = 0; p < ps.size(); ++p) {
    std::vector<bool> pi(14);
    for (std::size_t i = 0; i < 14; ++i) pi[i] = ps.get(p, i);
    const auto ref = reference_eval(nl, pi);
    const auto& word = blocks[p / 64];
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const bool bit = (word[n] >> (p % 64)) & 1;
      ASSERT_EQ(bit, ref[n]) << "pattern " << p << " net " << nl.gate(n).name;
    }
  }
}

TEST(LogicSim, SimulateWordHandlesShortBlock) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  LogicSim sim(cc);
  util::Rng rng(5);
  const PatternSet ps = PatternSet::random(5, 10, rng);  // less than a word
  std::vector<Word> values;
  sim.simulate_word(ps, 0, values);
  EXPECT_EQ(values.size(), nl.num_nets());
}

}  // namespace
}  // namespace fbist::sim
