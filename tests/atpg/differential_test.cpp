// Differential cross-engine suite: PODEM and SatEngine answer the same
// question ("is this stuck-at fault testable, and with what vector?")
// through entirely different machinery — structural branch-and-bound
// vs. CNF miter + CDCL.  Their answers must never contradict:
//
//   * PODEM found a test      => SAT must not prove redundancy;
//   * PODEM proved untestable => SAT must certify redundancy;
//   * SAT produced a pattern  => FaultSim must confirm the detection;
//   * SAT certified redundant => exhaustive simulation (<= 16 PIs)
//                                finds no detecting pattern at all;
//   * the structural miter (proves_redundant) and the plain miter
//     (generate) agree on redundancy, and on <= 16 PIs both equal
//     ground truth — run_atpg's byte identity rests on this.
//
// Run over every collapsed fault of small circuits, the two engines
// check each other gate encoding by gate encoding; a disagreement
// localizes a bug in one of them (or in the fault simulator, the
// third, independent arbiter).
#include <gtest/gtest.h>

#include "atpg/podem.h"
#include "atpg/sat_engine.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "fault/fault.h"
#include "sim/detects.h"
#include "sim/fault_sim.h"
#include "sim/pattern.h"

namespace fbist::atpg {
namespace {

/// Ground truth for small circuits: per-fault detectability under the
/// full 2^inputs pattern set.
std::vector<bool> exhaustive_detectability(const netlist::CompiledCircuit& cc,
                                           const fault::FaultList& fl) {
  const std::size_t inputs = cc.num_inputs();
  EXPECT_LE(inputs, 16u) << "exhaustive oracle needs <= 16 inputs";
  sim::PatternSet all(inputs, 0);
  for (std::uint64_t v = 0; v < (1ull << inputs); ++v) {
    all.append(util::WideWord(inputs, v));
  }
  sim::FaultSim fsim(cc, fl);
  const sim::FaultSimResult r = fsim.run(all);
  std::vector<bool> detectable(fl.size(), false);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    detectable[fid] = r.detected.get(fid);
  }
  return detectable;
}

void cross_check(const netlist::Netlist& nl, bool exhaustive) {
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  Podem podem(cc);
  SatEngine sat(cc);
  sim::FaultSim fsim(cc, fl);
  const std::vector<bool> truth =
      exhaustive ? exhaustive_detectability(cc, fl) : std::vector<bool>();

  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const fault::Fault& f = fl[fid];
    const PodemResult pr = podem.generate(f);
    const SatResult sr = sat.generate(f);
    ASSERT_NE(sr.status, SatStatus::kAborted) << fault_name(nl, f);

    if (pr.status == PodemStatus::kTestFound) {
      // A constructive witness exists; a redundancy proof would be a
      // soundness bug in the CNF layer or the solver.
      EXPECT_EQ(sr.status, SatStatus::kDetected) << fault_name(nl, f);
    }
    if (pr.status == PodemStatus::kUntestable) {
      // Both provers must agree on redundancy.
      EXPECT_EQ(sr.status, SatStatus::kRedundant) << fault_name(nl, f);
    }
    if (sr.status == SatStatus::kDetected) {
      EXPECT_TRUE(sim::detects(fsim, sr.pattern, fid)) << fault_name(nl, f);
    }
    const bool structural_redundant = sat.proves_redundant(f);
    EXPECT_EQ(structural_redundant, sr.status == SatStatus::kRedundant)
        << fault_name(nl, f);
    if (exhaustive) {
      // The SAT verdict must equal ground truth exactly — detected
      // faults are detectable, redundant faults have no detecting
      // vector among all 2^inputs.
      EXPECT_EQ(sr.status == SatStatus::kDetected, truth[fid])
          << fault_name(nl, f);
      EXPECT_EQ(structural_redundant, !truth[fid]) << fault_name(nl, f);
    }
  }
}

TEST(DifferentialAtpg, C17Exhaustive) {
  cross_check(circuits::make_c17(), /*exhaustive=*/true);
}

TEST(DifferentialAtpg, GeneratorCircuitsExhaustive) {
  for (const std::uint64_t seed : {3ull, 7ull, 13ull}) {
    circuits::GeneratorSpec spec;
    spec.num_inputs = 12;
    spec.num_outputs = 5;
    spec.num_gates = 90;
    spec.xor_share = 0.25;
    spec.seed = seed;
    cross_check(circuits::generate(spec), /*exhaustive=*/true);
  }
}

TEST(DifferentialAtpg, XorHeavyGeneratorCircuitExhaustive) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 4;
  spec.num_gates = 70;
  spec.xor_share = 0.60;  // stress the chained XOR/XNOR encoding
  spec.seed = 29;
  cross_check(circuits::generate(spec), /*exhaustive=*/true);
}

// c432 is too wide for the exhaustive oracle (36 PIs), but the
// pairwise PODEM/SAT/FaultSim agreements still hold on every fault.
TEST(DifferentialAtpg, C432PairwiseAgreement) {
  cross_check(circuits::make_circuit("c432"), /*exhaustive=*/false);
}

}  // namespace
}  // namespace fbist::atpg
