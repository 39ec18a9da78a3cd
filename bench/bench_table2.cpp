// Table 2 — "Set Covering algorithm".
//
// Reports, per circuit: the initial Detection-Matrix size
// (#Triplets x #Faults) and, per TPG, the effect of the essentiality/
// dominance reduction (residual matrix size, #necessary triplets) plus
// the contribution of the exact solver (the paper's LINGO column).
// The paper's observation to reproduce: reduction is highly effective —
// the residual is small or empty, so the exact solve is trivial.
#include <iostream>

#include "bench_common.h"
#include "obs/clock.h"
#include "reseed/pipeline.h"
#include "util/table.h"

int main() {
  using namespace fbist;

  const auto circuits = bench::selected_circuits();
  const std::size_t cycles = bench::default_cycles();
  const std::vector<std::pair<tpg::TpgKind, std::string>> kinds = {
      {tpg::TpgKind::kAdder, "add"},
      {tpg::TpgKind::kMultiplier, "mul"},
      {tpg::TpgKind::kSubtracter, "sub"},
  };

  util::Table table("Table 2: Set-covering algorithm (reduction + exact solver)");
  table.set_header({"circuit", "matrix(MxF)",
                    "add:nec", "add:solver", "add:residual",
                    "mul:nec", "mul:solver", "mul:residual",
                    "sub:nec", "sub:solver", "sub:residual"});

  for (const auto& name : circuits) {
    std::cout << "[table2] " << name << " ..." << std::flush;
    const std::uint64_t start = obs::Clock::now_ns();
    reseed::Pipeline pipe(name);

    std::vector<std::string> row = {name};
    bool first = true;
    for (const auto& [kind, label] : kinds) {
      (void)label;
      const auto [init, sol] = pipe.run_detailed(kind, cycles);
      if (first) {
        row.insert(row.begin() + 1,
                   std::to_string(sol.initial_rows) + "x" +
                       std::to_string(sol.initial_cols));
        first = false;
      }
      row.push_back(std::to_string(sol.necessary_count));
      row.push_back(std::to_string(sol.solver_count));
      row.push_back(std::to_string(sol.residual_rows) + "x" +
                    std::to_string(sol.residual_cols));
    }
    table.add_row(std::move(row));
    const double secs = obs::Clock::to_s(obs::Clock::now_ns() - start);
    std::cout << " done (" << util::Table::fmt(secs, 1) << "s)\n";
  }

  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\n(empty residual => solution contains necessary triplets only,"
               " matching the paper's c499/c880/... rows)\n";
  return 0;
}
