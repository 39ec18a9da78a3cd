// Figure 2 — "Trade-off Reseedings vs. Test Length".
//
// Sweeps the per-triplet evolution length T on s1238 with the adder-
// based accumulator TPG (the paper's configuration) and prints one
// (#reseedings, global test length) point per T.  The paper's series
// starts at 11 triplets / 5,427 patterns and ends at 2 triplets /
// 15,551 patterns; the shape to reproduce is: triplet count falls as the
// global test length grows.
#include <cstdlib>
#include <iostream>

#include "bench_common.h"
#include "obs/clock.h"
#include "reseed/pipeline.h"
#include "reseed/tradeoff.h"
#include "util/table.h"

int main() {
  using namespace fbist;

  std::string circuit = "s1238";
  if (const char* c = std::getenv("FBIST_FIG2_CIRCUIT")) circuit = c;

  std::cout << "[figure2] sweeping T on " << circuit << " + adder TPG\n";
  const std::uint64_t start = obs::Clock::now_ns();
  reseed::Pipeline pipe(circuit);
  const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder,
                                 pipe.circuit().num_inputs());

  reseed::TradeoffOptions opts;
  opts.cycle_values = {1, 4, 16, 64, 128, 256, 512, 1024};
  opts.builder.shared_sigma = true;  // monotone trade-off curve

  const auto points = reseed::tradeoff_sweep(pipe.fault_sim(), *tpg,
                                             pipe.atpg_patterns(), opts);

  util::Table table("Figure 2: Trade-off Reseedings vs Test Length (" +
                    circuit + ", adder TPG)");
  table.set_header({"T (cycles/triplet)", "#reseedings", "test length",
                    "coverage"});
  for (const auto& p : points) {
    table.add_row({std::to_string(p.cycles_per_triplet),
                   std::to_string(p.num_triplets),
                   std::to_string(p.test_length),
                   std::to_string(p.faults_covered) + "/" +
                       std::to_string(p.faults_targeted)});
  }
  std::cout << '\n';
  table.print(std::cout);

  // The headline series of the figure, as a compact line.
  std::cout << "\nseries:";
  for (const auto& p : points) {
    std::cout << " (" << p.num_triplets << "T," << p.test_length << "pat)";
  }
  const double total = obs::Clock::to_s(obs::Clock::now_ns() - start);
  std::cout << "\n(total " << util::Table::fmt(total, 1) << "s)\n";
  return 0;
}
