#include "atpg/scoap.h"

#include <gtest/gtest.h>

#include "circuits/generator.h"
#include "circuits/registry.h"
#include "sim/fault_sim.h"

namespace fbist::atpg {
namespace {

using netlist::GateType;
using netlist::Netlist;

TEST(Scoap, InputsCostOne) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  for (const auto i : nl.inputs()) {
    EXPECT_EQ(s.cc0[i], 1u);
    EXPECT_EQ(s.cc1[i], 1u);
  }
}

TEST(Scoap, OutputsObservableForFree) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  for (const auto o : nl.outputs()) EXPECT_EQ(s.co[o], 0u);
}

TEST(Scoap, AndGateControllability) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kAnd, "g", {a, b});
  nl.mark_output(g);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  EXPECT_EQ(s.cc1[g], 3u);  // both inputs to 1: 1+1+1
  EXPECT_EQ(s.cc0[g], 2u);  // one input to 0: 1+1
  // Observing `a` through the AND requires b=1: co = 0 + cc1(b) + 1 = 2.
  EXPECT_EQ(s.co[a], 2u);
}

TEST(Scoap, NotGateSwapsControllability) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto g1 = nl.add_gate(GateType::kAnd, "g1", {a, nl.add_input("b")});
  const auto inv = nl.add_gate(GateType::kNot, "inv", {g1});
  nl.mark_output(inv);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  EXPECT_EQ(s.cc0[inv], s.cc1[g1] + 1);
  EXPECT_EQ(s.cc1[inv], s.cc0[g1] + 1);
}

TEST(Scoap, XorTwoInputRecurrence) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kXor, "g", {a, b});
  nl.mark_output(g);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  // cc0 = min(1+1, 1+1)+1 = 3; cc1 = min(1+1, 1+1)+1 = 3.
  EXPECT_EQ(s.cc0[g], 3u);
  EXPECT_EQ(s.cc1[g], 3u);
}

TEST(Scoap, DeadLogicUnobservable) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto keep = nl.add_gate(GateType::kAnd, "keep", {a, b});
  const auto dead = nl.add_gate(GateType::kOr, "dead", {a, b});
  nl.mark_output(keep);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  EXPECT_EQ(s.co[dead], kScoapInf);
  EXPECT_LT(s.co[keep], kScoapInf);
}

TEST(Scoap, DeeperNetsCostMore) {
  // A chain of buffers: controllability grows along the chain,
  // observability grows toward the input.
  Netlist nl;
  auto prev = nl.add_input("a");
  std::vector<netlist::NetId> chain = {prev};
  for (int i = 0; i < 5; ++i) {
    prev = nl.add_gate(GateType::kBuf, "b" + std::to_string(i), {prev});
    chain.push_back(prev);
  }
  nl.mark_output(prev);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_GT(s.cc0[chain[i]], s.cc0[chain[i - 1]]);
    EXPECT_LT(s.co[chain[i]], s.co[chain[i - 1]]);
  }
}

TEST(Scoap, FaultDifficultyUsesOpposingControllability) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  const auto fl = fault::FaultList::full(cc);
  for (std::size_t i = 0; i < fl.size(); ++i) {
    const auto d = s.fault_difficulty(fl[i]);
    EXPECT_LT(d, kScoapInf);
    EXPECT_GT(d, 0u);
  }
}

TEST(Scoap, HardestFirstIsSortedByDifficulty) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  const auto fl = fault::FaultList::collapsed(cc);
  const auto order = hardest_first(s, fl);
  ASSERT_EQ(order.size(), fl.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(s.fault_difficulty(fl[order[i - 1]]),
              s.fault_difficulty(fl[order[i]]));
  }
}

TEST(Scoap, DifficultyCorrelatesWithRandomDetection) {
  // Statistical property: among random patterns, easy faults (low
  // difficulty) should be detected at least as often as hard ones.
  // Compare mean difficulty of detected vs undetected faults after a
  // small random campaign on a random-resistant circuit.
  circuits::GeneratorSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 300;
  spec.xor_share = 0.3;
  spec.seed = 77;
  const auto nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  const auto s = compute_scoap(cc);

  sim::FaultSim fsim(cc, fl);
  util::Rng rng(5);
  const auto ps = sim::PatternSet::random(16, 64, rng);
  const auto r = fsim.run(ps);

  double sum_detected = 0, sum_missed = 0;
  std::size_t n_detected = 0, n_missed = 0;
  for (std::size_t f = 0; f < fl.size(); ++f) {
    const double d = static_cast<double>(s.fault_difficulty(fl[f]));
    if (r.detected.get(f)) {
      sum_detected += d;
      ++n_detected;
    } else {
      sum_missed += d;
      ++n_missed;
    }
  }
  if (n_detected == 0 || n_missed == 0) GTEST_SKIP() << "degenerate split";
  EXPECT_LT(sum_detected / n_detected, sum_missed / n_missed);
}

TEST(Scoap, SummaryMentionsNumbers) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto s = compute_scoap(cc);
  const auto text = scoap_summary(s);
  EXPECT_NE(text.find("SCOAP"), std::string::npos);
  EXPECT_NE(text.find("11/11 nets observable"), std::string::npos);
}

}  // namespace
}  // namespace fbist::atpg
