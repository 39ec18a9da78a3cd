#include "reseed/tradeoff.h"

#include <algorithm>

namespace fbist::reseed {

std::vector<TradeoffPoint> tradeoff_sweep(const sim::FaultSim& fsim,
                                          const tpg::Tpg& tpg,
                                          const sim::PatternSet& atpg_patterns,
                                          const TradeoffOptions& opts) {
  std::vector<TradeoffPoint> points;
  if (opts.cycle_values.empty()) return points;
  points.reserve(opts.cycle_values.size());
  // One build at the largest T; every point thresholds it.
  BuilderOptions b = opts.builder;
  b.cycles_per_triplet = *std::max_element(opts.cycle_values.begin(),
                                           opts.cycle_values.end());
  const InitialReseeding family =
      build_initial_reseeding(fsim, tpg, atpg_patterns, b);
  for (const std::size_t cycles : opts.cycle_values) {
    const ReseedingSolution sol =
        optimize(at_cycles(family, cycles), opts.optimizer);

    TradeoffPoint p;
    p.cycles_per_triplet = cycles;
    p.num_triplets = sol.num_triplets();
    p.test_length = sol.test_length;
    p.faults_targeted = sol.faults_targeted;
    p.faults_covered = sol.faults_covered;
    points.push_back(p);
  }
  return points;
}

}  // namespace fbist::reseed
