#include "baseline/gatsby.h"

#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "circuits/registry.h"
#include "tpg/accumulator.h"
#include "tpg/triplet.h"

namespace fbist::baseline {
namespace {

struct Fixture {
  netlist::Netlist nl = circuits::make_c17();
  netlist::CompiledCircuit cc{nl};
  fault::FaultList fl = fault::FaultList::full(cc);
  sim::FaultSim fsim{cc, fl};
  atpg::AtpgResult atpg = atpg::run_atpg(cc, fl);
  tpg::AdderTpg tpg{nl.num_inputs()};
};

TEST(Gatsby, ReachesFullCoverageOnC17) {
  Fixture f;
  GatsbyOptions opts;
  opts.generations = 30;
  const GatsbyResult r = run_gatsby(f.fsim, f.tpg, f.atpg.patterns, opts);
  EXPECT_TRUE(r.full_coverage())
      << r.faults_covered << "/" << r.faults_total;
  EXPECT_GT(r.num_triplets(), 0u);
}

TEST(Gatsby, ReportedCoverageMatchesSimulation) {
  Fixture f;
  const GatsbyResult r = run_gatsby(f.fsim, f.tpg, f.atpg.patterns);
  const auto ts = tpg::expand_all(f.tpg, r.triplets);
  const auto check = f.fsim.run(ts);
  EXPECT_EQ(check.num_detected(), r.faults_covered);
  EXPECT_EQ(ts.size(), r.test_length);
}

TEST(Gatsby, DeterministicForSeed) {
  Fixture f;
  GatsbyOptions opts;
  opts.seed = 42;
  opts.generations = 10;
  const GatsbyResult a = run_gatsby(f.fsim, f.tpg, f.atpg.patterns, opts);
  const GatsbyResult b = run_gatsby(f.fsim, f.tpg, f.atpg.patterns, opts);
  EXPECT_EQ(a.faults_covered, b.faults_covered);
  EXPECT_EQ(a.num_triplets(), b.num_triplets());
  EXPECT_EQ(a.test_length, b.test_length);
}

TEST(Gatsby, FaultSimCallsGrowWithGenerations) {
  Fixture f;
  GatsbyOptions small, large;
  small.generations = 2;
  small.stall_generations = 1000;  // no early stop
  large.generations = 10;
  large.stall_generations = 1000;
  const auto a = run_gatsby(f.fsim, f.tpg, f.atpg.patterns, small);
  const auto b = run_gatsby(f.fsim, f.tpg, f.atpg.patterns, large);
  EXPECT_GT(b.fault_sim_calls, a.fault_sim_calls);
}

TEST(Gatsby, WorksWithoutSeedPatterns) {
  Fixture f;
  const sim::PatternSet empty(f.nl.num_inputs(), 0);
  GatsbyOptions opts;
  opts.generations = 25;
  const GatsbyResult r = run_gatsby(f.fsim, f.tpg, empty, opts);
  // Random-only start still finds most of tiny c17.
  EXPECT_GT(r.faults_covered, r.faults_total / 2);
}

TEST(Gatsby, RespectsMaxTriplets) {
  Fixture f;
  GatsbyOptions opts;
  opts.max_triplets = 3;
  opts.generations = 8;
  const GatsbyResult r = run_gatsby(f.fsim, f.tpg, f.atpg.patterns, opts);
  EXPECT_LE(r.num_triplets(), 3u);
}

}  // namespace
}  // namespace fbist::baseline
