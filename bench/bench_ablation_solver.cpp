// Ablation B — solver choice: exact branch-and-bound (LINGO substitute)
// vs greedy heuristic.
//
// Reports solution cardinality and time for both solvers on every
// circuit's reduced matrix.  Shows where exactness buys triplets and
// what it costs.
#include <iostream>

#include "bench_common.h"
#include "obs/clock.h"
#include "reseed/pipeline.h"
#include "util/table.h"

int main() {
  using namespace fbist;

  const auto circuits = bench::selected_circuits();
  const std::size_t cycles = bench::default_cycles();

  util::Table table("Ablation B: exact vs greedy set-cover solver");
  table.set_header({"circuit", "#T(exact)", "#T(greedy)", "ms(exact)",
                    "ms(greedy)", "residual"});

  for (const auto& name : circuits) {
    std::cout << "[ablation-solver] " << name << " ..." << std::flush;
    reseed::Pipeline pipe(name);
    const auto [init, probe] = pipe.run_detailed(tpg::TpgKind::kAdder, cycles);

    reseed::OptimizerOptions ex, gr;
    ex.solver = reseed::SolverChoice::kExact;
    gr.solver = reseed::SolverChoice::kGreedy;

    std::uint64_t start = obs::Clock::now_ns();
    const auto a = reseed::optimize(init, ex);
    const double ms_ex = obs::Clock::to_ms(obs::Clock::now_ns() - start);
    start = obs::Clock::now_ns();
    const auto b = reseed::optimize(init, gr);
    const double ms_gr = obs::Clock::to_ms(obs::Clock::now_ns() - start);

    table.add_row({name,
                   std::to_string(a.num_triplets()),
                   std::to_string(b.num_triplets()),
                   util::Table::fmt(ms_ex, 1),
                   util::Table::fmt(ms_gr, 1),
                   std::to_string(probe.residual_rows) + "x" +
                       std::to_string(probe.residual_cols)});
    std::cout << " done\n";
  }

  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\n(exact <= greedy everywhere; the gap is the value of the"
               " LINGO stage in the paper's flow)\n";
  return 0;
}
