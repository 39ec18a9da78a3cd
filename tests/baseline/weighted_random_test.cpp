#include "baseline/weighted_random.h"

#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "circuits/generator.h"
#include "circuits/registry.h"

namespace fbist::baseline {
namespace {

TEST(WeightedRandom, UniformWeightsWithoutGuide) {
  const sim::PatternSet empty(8, 0);
  const auto w = derive_weights(empty, 8);
  ASSERT_EQ(w.size(), 8u);
  for (const double x : w) EXPECT_DOUBLE_EQ(x, 0.5);
}

TEST(WeightedRandom, WeightsFollowGuideDistribution) {
  sim::PatternSet guide(2, 4);
  // input 0: always 1; input 1: one of four.
  for (std::size_t p = 0; p < 4; ++p) guide.set(p, 0, true);
  guide.set(0, 1, true);
  const auto w = derive_weights(guide, 2, 0.05);
  EXPECT_DOUBLE_EQ(w[0], 0.95);  // clamped from 1.0
  EXPECT_DOUBLE_EQ(w[1], 0.25);
}

TEST(WeightedRandom, WeightsClampedAwayFromExtremes) {
  sim::PatternSet guide(1, 3);  // input always 0
  const auto w = derive_weights(guide, 1, 0.1);
  EXPECT_DOUBLE_EQ(w[0], 0.1);
}

TEST(WeightedRandom, PatternsRespectExtremeWeights) {
  util::Rng rng(1);
  const std::vector<double> w = {0.999, 0.001};
  const auto ps = weighted_patterns(w, 200, rng);
  std::size_t ones0 = 0, ones1 = 0;
  for (std::size_t p = 0; p < 200; ++p) {
    ones0 += ps.get(p, 0);
    ones1 += ps.get(p, 1);
  }
  EXPECT_GT(ones0, 190u);
  EXPECT_LT(ones1, 10u);
}

TEST(WeightedRandom, FullCoverageOnTinyCircuit) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  sim::FaultSim fsim(cc, fl);
  const sim::PatternSet no_guide(5, 0);
  const auto r = run_weighted_random(fsim, no_guide);
  EXPECT_EQ(r.faults_detected, fl.size());
  EXPECT_LE(r.last_useful_pattern, r.patterns_applied);
}

TEST(WeightedRandom, StallsBelowFullCoverageOnResistantCircuit) {
  // The paper's premise: the benchmark circuits are selected because
  // random testing (even weighted) does not reach full coverage within
  // 10k patterns.  Verify on a registry circuit with a reduced budget.
  const auto nl = circuits::make_circuit("s1238");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  sim::FaultSim fsim(cc, fl);
  const sim::PatternSet no_guide(nl.num_inputs(), 0);
  WeightedRandomOptions opts;
  opts.max_patterns = 2048;
  const auto r = run_weighted_random(fsim, no_guide, opts);
  EXPECT_LT(r.coverage_percent(), 100.0);
  EXPECT_GT(r.coverage_percent(), 50.0);  // but it is not useless either
}

TEST(WeightedRandom, GuidedWeightsAtLeastAsGoodAsUniformOnAverage) {
  // Weak statistical check: ATPG-derived weights should not be much
  // worse than uniform at equal budget (usually better on biased
  // circuits).  Allow slack — this is a heuristic, not a theorem.
  const auto nl = circuits::make_circuit("s420");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  sim::FaultSim fsim(cc, fl);
  const auto atpg = atpg::run_atpg(cc, fl);

  WeightedRandomOptions opts;
  opts.max_patterns = 1024;
  const auto uniform = run_weighted_random(fsim, sim::PatternSet(nl.num_inputs(), 0), opts);
  const auto guided = run_weighted_random(fsim, atpg.patterns, opts);
  EXPECT_GE(guided.coverage_percent() + 5.0, uniform.coverage_percent());
}

TEST(WeightedRandom, DeterministicForSeed) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  sim::FaultSim fsim(cc, fl);
  const sim::PatternSet no_guide(5, 0);
  WeightedRandomOptions opts;
  opts.seed = 77;
  const auto a = run_weighted_random(fsim, no_guide, opts);
  const auto b = run_weighted_random(fsim, no_guide, opts);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  EXPECT_EQ(a.patterns_applied, b.patterns_applied);
  EXPECT_EQ(a.last_useful_pattern, b.last_useful_pattern);
}

}  // namespace
}  // namespace fbist::baseline
