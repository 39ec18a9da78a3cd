// Table 1 — "Reseeding solution".
//
// For every benchmark circuit and every accumulator TPG (adder,
// multiplier, subtracter) this harness reports the cardinality of the
// set-covering reseeding solution (#Triplets) and its global Test
// Length, side by side with the GATSBY-style GA baseline.  Mirrors the
// paper's Table 1: the set-covering solution should use no more — and
// usually fewer — triplets than the GA, and the GA is skipped on the two
// largest circuits (marked "-"), which it cannot handle.
#include <iostream>

#include "baseline/gatsby.h"
#include "bench_common.h"
#include "obs/clock.h"
#include "reseed/pipeline.h"
#include "reseed/report.h"
#include "util/table.h"

int main() {
  using namespace fbist;

  const auto circuits = bench::selected_circuits();
  const std::size_t cycles = bench::default_cycles();
  const std::vector<tpg::TpgKind> kinds = {
      tpg::TpgKind::kAdder, tpg::TpgKind::kMultiplier, tpg::TpgKind::kSubtracter};

  util::Table table("Table 1: Reseeding solution (set covering vs GATSBY)");
  table.set_header({"circuit",
                    "add:#T", "add:len",
                    "mul:#T", "mul:len",
                    "sub:#T", "sub:len",
                    "GA:#T", "GA:len", "GA:FC%"});

  const std::uint64_t total_start = obs::Clock::now_ns();
  for (const auto& name : circuits) {
    const auto& prof = circuits::profile(name);
    std::cout << "[table1] " << name << " ..." << std::flush;
    const std::uint64_t start = obs::Clock::now_ns();
    reseed::Pipeline pipe(name);

    std::vector<std::string> row = {name};
    for (const auto kind : kinds) {
      const auto sol = pipe.run(kind, cycles);
      row.push_back(std::to_string(sol.num_triplets()));
      row.push_back(std::to_string(sol.test_length));
    }

    if (prof.too_large_for_gatsby) {
      row.insert(row.end(), {"-", "-", "-"});
    } else {
      const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder,
                                     pipe.circuit().num_inputs());
      baseline::GatsbyOptions gopts;
      gopts.cycles_per_triplet = cycles;
      gopts.seed = util::hash_string(name);
      const auto ga = baseline::run_gatsby(pipe.fault_sim(), *tpg,
                                           pipe.atpg_patterns(), gopts);
      row.push_back(std::to_string(ga.num_triplets()));
      row.push_back(std::to_string(ga.test_length));
      row.push_back(util::Table::fmt(
          100.0 * static_cast<double>(ga.faults_covered) /
              static_cast<double>(ga.faults_total),
          1));
    }
    table.add_row(std::move(row));
    const double secs = obs::Clock::to_s(obs::Clock::now_ns() - start);
    std::cout << " done (" << util::Table::fmt(secs, 1) << "s)\n";
  }

  std::cout << '\n';
  table.print(std::cout);
  const double total = obs::Clock::to_s(obs::Clock::now_ns() - total_start);
  std::cout << "\n(total " << util::Table::fmt(total, 1) << "s; T=" << cycles
            << " cycles per candidate triplet)\n";
  return 0;
}
