// Ablation A — reduction before the exact solve.
//
// DESIGN.md calls out the paper's claim that essentiality+dominance
// reduction is what makes the exact (LINGO) solve tractable.  This
// harness solves each circuit's covering instance twice — with and
// without the reduction stage — and reports solution size (must match:
// reduction is optimality-preserving), branch-and-bound nodes and wall
// time.
#include <iostream>

#include "bench_common.h"
#include "obs/clock.h"
#include "reseed/pipeline.h"
#include "util/table.h"

int main() {
  using namespace fbist;

  auto circuits = bench::selected_circuits();
  // The ablation is CPU-heavy without reduction; keep to mid-size set.
  if (circuits.size() > 8) circuits.resize(8);
  const std::size_t cycles = bench::default_cycles();

  util::Table table("Ablation A: exact solve with vs without matrix reduction");
  table.set_header({"circuit", "#T(red)", "#T(nored)", "nodes(red)",
                    "nodes(nored)", "ms(red)", "ms(nored)"});

  for (const auto& name : circuits) {
    std::cout << "[ablation-reduction] " << name << " ..." << std::flush;
    reseed::Pipeline pipe(name);
    const auto [init, base_sol] = pipe.run_detailed(tpg::TpgKind::kAdder, cycles);
    (void)base_sol;

    reseed::OptimizerOptions with, without;
    without.skip_reduction = true;

    std::uint64_t start = obs::Clock::now_ns();
    const auto a = reseed::optimize(init, with);
    const double ms_with = obs::Clock::to_ms(obs::Clock::now_ns() - start);

    start = obs::Clock::now_ns();
    const auto b = reseed::optimize(init, without);
    const double ms_without = obs::Clock::to_ms(obs::Clock::now_ns() - start);

    table.add_row({name,
                   std::to_string(a.num_triplets()),
                   std::to_string(b.num_triplets()),
                   std::to_string(a.solver_nodes),
                   std::to_string(b.solver_nodes),
                   util::Table::fmt(ms_with, 1),
                   util::Table::fmt(ms_without, 1)});
    std::cout << " done\n";
  }

  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\n(identical #T confirms reduction preserves optimality;"
               " node/time columns show why the paper reduces first)\n";
  return 0;
}
