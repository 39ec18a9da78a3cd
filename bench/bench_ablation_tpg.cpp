// Ablation C — TPG choice and sigma policy.
//
// The paper evaluates three accumulator TPGs and finds the method
// flexible across all of them.  This harness compares, on a fixed
// circuit set: coverage reachable by each TPG kind (including the LFSR
// extension) from a single random seed over a long run, and the final
// #triplets each TPG needs under the full flow.  Also contrasts the
// random-sigma policy against shared-sigma.
#include <iostream>

#include "bench_common.h"
#include "reseed/pipeline.h"
#include "util/table.h"

int main() {
  using namespace fbist;

  auto circuits = bench::selected_circuits();
  if (circuits.size() > 6) circuits.resize(6);
  const std::size_t cycles = bench::default_cycles();
  const std::vector<tpg::TpgKind> kinds = {
      tpg::TpgKind::kAdder, tpg::TpgKind::kSubtracter,
      tpg::TpgKind::kMultiplier, tpg::TpgKind::kLfsr};

  util::Table table("Ablation C: TPG kind (final #triplets under the full flow)");
  table.set_header({"circuit", "adder", "subtracter", "multiplier", "lfsr",
                    "adder(shared sigma)"});

  for (const auto& name : circuits) {
    std::cout << "[ablation-tpg] " << name << " ..." << std::flush;
    reseed::Pipeline pipe(name);
    std::vector<std::string> row = {name};
    for (const auto kind : kinds) {
      const auto sol = pipe.run(kind, cycles);
      row.push_back(std::to_string(sol.num_triplets()));
    }
    // Shared-sigma policy on the adder.
    {
      const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder,
                                     pipe.circuit().num_inputs());
      reseed::BuilderOptions bopts = pipe.options().builder;
      bopts.cycles_per_triplet = cycles;
      bopts.shared_sigma = true;
      const auto init = reseed::build_initial_reseeding(
          pipe.fault_sim(), *tpg, pipe.atpg_patterns(), bopts);
      const auto sol = reseed::optimize(init);
      row.push_back(std::to_string(sol.num_triplets()));
    }
    table.add_row(std::move(row));
    std::cout << " done\n";
  }

  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\n(comparable columns reproduce the paper's flexibility claim:"
               " the method is not customized to one TPG)\n";
  return 0;
}
