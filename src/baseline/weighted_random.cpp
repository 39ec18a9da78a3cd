#include "baseline/weighted_random.h"

#include <algorithm>

namespace fbist::baseline {

std::vector<double> derive_weights(const sim::PatternSet& guide,
                                   std::size_t num_inputs, double weight_floor) {
  std::vector<double> w(num_inputs, 0.5);
  if (!guide.empty()) {
    for (std::size_t i = 0; i < num_inputs; ++i) {
      std::size_t ones = 0;
      for (std::size_t p = 0; p < guide.size(); ++p) {
        if (guide.get(p, i)) ++ones;
      }
      w[i] = static_cast<double>(ones) / static_cast<double>(guide.size());
    }
  }
  for (auto& x : w) x = std::clamp(x, weight_floor, 1.0 - weight_floor);
  return w;
}

sim::PatternSet weighted_patterns(const std::vector<double>& weights,
                                  std::size_t count, util::Rng& rng) {
  sim::PatternSet ps(weights.size(), count);
  for (std::size_t p = 0; p < count; ++p) {
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (rng.next_bool(weights[i])) ps.set(p, i, true);
    }
  }
  return ps;
}

WeightedRandomResult run_weighted_random(const sim::FaultSim& fsim,
                                         const sim::PatternSet& guide,
                                         const WeightedRandomOptions& opts) {
  const std::size_t num_inputs = fsim.compiled().num_inputs();
  const std::size_t nf = fsim.faults().size();
  util::Rng rng(opts.seed);

  WeightedRandomResult result;
  result.faults_total = nf;
  result.weights = derive_weights(guide, num_inputs, opts.weight_floor);

  util::BitVector remaining(nf, true);

  while (result.patterns_applied < opts.max_patterns && remaining.any()) {
    const std::size_t count =
        std::min(opts.block, opts.max_patterns - result.patterns_applied);
    const sim::PatternSet block = weighted_patterns(result.weights, count, rng);
    const sim::FaultSimResult r = fsim.run_subset(block, remaining);
    r.detected.for_each_set([&](std::size_t fid) {
      remaining.reset(fid);
      ++result.faults_detected;
      result.last_useful_pattern = std::max(
          result.last_useful_pattern,
          result.patterns_applied + static_cast<std::size_t>(r.earliest[fid]) + 1);
    });
    result.patterns_applied += count;
  }
  return result;
}

}  // namespace fbist::baseline
