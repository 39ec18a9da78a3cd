// "Test the tester": the paper's literal scenario, fully gate-level.
//
// Functional BIST assumes two functionally-connected mission modules M1
// and M2, with M1 driving test patterns into M2.  Here both sides are
// real netlists from this library:
//   M1 = an adder-based accumulator (behavioural model drives pattern
//        generation, and its gate-level twin is cross-verified first),
//   M2 = the gate-level array multiplier (the UUT).
//
// The flow computes the minimal set of (delta, sigma, T) reseedings of
// the accumulator that covers every detectable stuck-at fault of the
// multiplier netlist.
//
//   $ ./test_the_tester [width]
#include <cstdlib>
#include <iostream>

#include "reseed/pipeline.h"
#include "reseed/report.h"
#include "tpg/accumulator.h"
#include "tpg/structural.h"

int main(int argc, char** argv) {
  using namespace fbist;

  const std::size_t width =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 8;

  // --- M2: the unit under test is a real gate-level multiplier --------
  netlist::Netlist uut = tpg::structural_multiplier(width);
  std::cout << uut.summary("M2 (array multiplier UUT)") << "\n";

  // --- M1: the pattern generator is the adder accumulator -------------
  // Gate-level sanity: the behavioural model used for pattern
  // computation must match the structural adder bit for bit.
  {
    tpg::AdderTpg behav(width);
    util::Rng rng(7);
    const netlist::Netlist adder = tpg::structural_adder(width);
    const netlist::CompiledCircuit adder_cc(adder, /*build_cone_slices=*/false);
    const std::size_t bad =
        tpg::verify_structural_equivalence(behav, adder_cc, 100, rng);
    std::cout << "M1 (adder accumulator) gate-level equivalence: "
              << (bad == 0 ? "verified" : "FAILED") << "\n\n";
    if (bad != 0) return 1;
  }

  // The multiplier UUT has 2*width inputs, so the accumulator register
  // spans the full operand pair.
  reseed::PipelineOptions opts;
  reseed::Pipeline pipeline(std::move(uut), "multiplier-uut", opts);
  std::cout << "target faults: " << pipeline.faults().size()
            << ", ATPG patterns: " << pipeline.atpg_patterns().size() << "\n";

  const auto sol = pipeline.run(tpg::TpgKind::kAdder, 64);
  std::cout << reseed::solution_to_string(
      sol, "\nReseedings of M1 that test M2 completely:");
  std::cout << "\nBIST plan: load each (delta, sigma) into the accumulator,"
               " run for the listed T cycles,\nand compare M2's outputs against"
               " the golden signature.\n";
  return sol.faults_covered == sol.faults_targeted ? 0 : 1;
}
