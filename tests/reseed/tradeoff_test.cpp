#include "reseed/tradeoff.h"

#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "circuits/registry.h"
#include "tpg/accumulator.h"

namespace fbist::reseed {
namespace {

struct Fixture {
  netlist::Netlist nl = circuits::make_c17();
  netlist::CompiledCircuit cc{nl};
  fault::FaultList fl = fault::FaultList::full(cc);
  sim::FaultSim fsim{cc, fl};
  atpg::AtpgResult atpg = atpg::run_atpg(cc, fl);
  tpg::AdderTpg tpg{nl.num_inputs()};
};

TEST(Tradeoff, OnePointPerCycleValue) {
  Fixture f;
  TradeoffOptions opts;
  opts.cycle_values = {1, 4, 16};
  const auto pts = tradeoff_sweep(f.fsim, f.tpg, f.atpg.patterns, opts);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].cycles_per_triplet, 1u);
  EXPECT_EQ(pts[2].cycles_per_triplet, 16u);
}

TEST(Tradeoff, TripletCountNonIncreasingWithSharedSigma) {
  // With a shared sigma the candidate test sets for larger T are strict
  // supersets, so the minimum cover cannot grow.
  Fixture f;
  TradeoffOptions opts;
  opts.cycle_values = {1, 2, 4, 8, 16, 32};
  opts.builder.shared_sigma = true;
  const auto pts = tradeoff_sweep(f.fsim, f.tpg, f.atpg.patterns, opts);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i].num_triplets, pts[i - 1].num_triplets)
        << "T=" << pts[i].cycles_per_triplet;
  }
}

TEST(Tradeoff, FullCoverageAtEveryPoint) {
  Fixture f;
  TradeoffOptions opts;
  opts.cycle_values = {1, 8, 32};
  const auto pts = tradeoff_sweep(f.fsim, f.tpg, f.atpg.patterns, opts);
  for (const auto& p : pts) {
    EXPECT_EQ(p.faults_covered, p.faults_targeted) << "T=" << p.cycles_per_triplet;
  }
}

TEST(Tradeoff, TEquals1ReproducesAtpgBehaviour) {
  // With T=1 each triplet is exactly one ATPG pattern, so the solution
  // cannot use fewer triplets than the minimum cover of single patterns
  // and the test length equals the triplet count.
  Fixture f;
  TradeoffOptions opts;
  opts.cycle_values = {1};
  const auto pts = tradeoff_sweep(f.fsim, f.tpg, f.atpg.patterns, opts);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].test_length, pts[0].num_triplets);
}

}  // namespace
}  // namespace fbist::reseed
