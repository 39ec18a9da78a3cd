// SoC scenario: reuse an existing datapath accumulator to test a scanned
// logic block — the paper's motivating use case.
//
// A "SoC" here is one of the full-scan ISCAS'89-profile circuits plus a
// datapath accumulator (adder / subtracter / multiplier) that doubles as
// the BIST pattern generator.  The example walks the whole flow:
//   1. build the scan-flattened UUT and its target fault list,
//   2. generate the deterministic ATPG test set,
//   3. build candidate triplets and the Detection Matrix,
//   4. reduce + exact-solve to a minimal reseeding,
//   5. report what must be stored in the BIST ROM.
//
//   $ ./soc_accumulator_bist [circuit] [tpg] [cycles]
//   $ ./soc_accumulator_bist s1238 multiplier 64
#include <cstdlib>
#include <iostream>
#include <string>

#include "bist/misr.h"
#include "reseed/pipeline.h"
#include "reseed/report.h"
#include "tpg/triplet.h"

int main(int argc, char** argv) {
  using namespace fbist;

  const std::string circuit = argc > 1 ? argv[1] : "s820";
  const std::string tpg_name = argc > 2 ? argv[2] : "adder";
  const std::size_t cycles = argc > 3
                                 ? static_cast<std::size_t>(std::atoi(argv[3]))
                                 : 64;

  tpg::TpgKind kind = tpg::TpgKind::kAdder;
  if (tpg_name == "subtracter") kind = tpg::TpgKind::kSubtracter;
  else if (tpg_name == "multiplier") kind = tpg::TpgKind::kMultiplier;
  else if (tpg_name == "lfsr") kind = tpg::TpgKind::kLfsr;
  else if (tpg_name != "adder") {
    std::cerr << "unknown TPG '" << tpg_name
              << "' (adder|subtracter|multiplier|lfsr)\n";
    return 1;
  }

  std::cout << "=== Functional BIST planning for " << circuit << " ===\n";
  reseed::Pipeline pipeline(circuit);
  const auto& nl = pipeline.circuit();
  std::cout << nl.summary(circuit) << "\n"
            << "collapsed target faults: " << pipeline.faults().size() << "\n"
            << "ATPG test set (TestGen substitute): "
            << pipeline.atpg_patterns().size() << " patterns\n"
            << "TPG: " << tpg_name << "-based accumulator, width "
            << nl.num_inputs() << " bits, T=" << cycles << " cycles\n\n";

  const auto [init, sol] = pipeline.run_detailed(kind, cycles);

  std::cout << "Detection matrix: " << sol.initial_rows << " candidate triplets x "
            << sol.initial_cols << " faults\n"
            << "after reduction: " << sol.residual_rows << "x"
            << sol.residual_cols << " (" << sol.necessary_count
            << " necessary triplets)\n"
            << "exact solver picked " << sol.solver_count << " more ("
            << sol.solver_nodes << " B&B nodes)\n\n";

  std::cout << reseed::solution_to_string(sol, "Final reseeding solution:");

  // Response side: per triplet, the fault-free MISR signature the BIST
  // controller compares against after the run.
  const bist::Misr misr(nl.num_outputs());
  const auto run_tpg = tpg::make_tpg(kind, nl.num_inputs());
  std::cout << "\nGolden signatures (" << nl.num_outputs() << "-bit MISR):\n";
  for (const auto& st : sol.selected) {
    const auto ts = tpg::expand_triplet(*run_tpg, st.triplet);
    const auto sig = bist::golden_signature(pipeline.compiled(), ts, misr);
    std::cout << "    triplet #" << st.triplet_index << " -> 0x" << sig.to_hex()
              << "\n";
  }

  // What the BIST controller actually stores: per triplet, the seed, the
  // operand, the cycle count and the golden signature.
  const std::size_t bits_per_triplet =
      2 * nl.num_inputs() + 32 + nl.num_outputs();
  std::cout << "\nROM budget: " << sol.num_triplets() << " triplets x "
            << bits_per_triplet << " bits = "
            << (sol.num_triplets() * bits_per_triplet + 7) / 8 << " bytes\n"
            << "global test time: " << sol.test_length << " clock cycles\n";
  return 0;
}
