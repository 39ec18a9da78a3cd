#include "reseed/optimizer.h"

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

  InitialReseeding initial(std::size_t cycles = 16) {
    BuilderOptions opts;
    opts.cycles_per_triplet = cycles;
    return build_initial_reseeding(fsim, tpg, atpg.patterns, opts);
  }
};

TEST(Optimizer, SolutionCoversEveryTargetedFault) {
  Fixture f;
  const auto init = f.initial();
  const ReseedingSolution sol = optimize(init);
  EXPECT_EQ(sol.faults_covered, sol.faults_targeted);
  EXPECT_EQ(sol.faults_uncoverable, 0u);
}

TEST(Optimizer, SolutionIsMinimalPerPaperDefinition) {
  Fixture f;
  const auto init = f.initial();
  const ReseedingSolution sol = optimize(init);
  EXPECT_TRUE(solution_is_minimal(init, sol));
}

TEST(Optimizer, NeverMoreTripletsThanInitial) {
  Fixture f;
  const auto init = f.initial();
  const ReseedingSolution sol = optimize(init);
  EXPECT_LE(sol.num_triplets(), init.triplets.size());
  EXPECT_GT(sol.num_triplets(), 0u);
}

TEST(Optimizer, TrimmedLengthsAtMostOriginal) {
  Fixture f;
  const std::size_t T = 16;
  const auto init = f.initial(T);
  const ReseedingSolution sol = optimize(init);
  for (const auto& st : sol.selected) {
    EXPECT_LE(st.triplet.cycles, T);
    EXPECT_GE(st.triplet.cycles, 1u);
  }
  EXPECT_LE(sol.test_length, sol.num_triplets() * T);
}

TEST(Optimizer, TrimmingPreservesCoverage) {
  Fixture f;
  const auto init = f.initial(16);
  const ReseedingSolution sol = optimize(init);
  // Expand the trimmed triplets and fault-simulate: all targeted faults
  // must still be detected.
  sim::PatternSet all(f.nl.num_inputs(), 0);
  for (const auto& st : sol.selected) {
    all.append_all(tpg::expand_triplet(f.tpg, st.triplet));
  }
  const auto r = f.fsim.run(all);
  EXPECT_EQ(r.num_detected(), sol.faults_targeted);
}

TEST(Optimizer, NoTrimKeepsFullLengths) {
  Fixture f;
  const std::size_t T = 16;
  const auto init = f.initial(T);
  OptimizerOptions opts;
  opts.trim_lengths = false;
  const ReseedingSolution sol = optimize(init, opts);
  for (const auto& st : sol.selected) EXPECT_EQ(st.triplet.cycles, T);
}

TEST(Optimizer, GreedySolverAlsoFeasible) {
  Fixture f;
  const auto init = f.initial();
  OptimizerOptions opts;
  opts.solver = SolverChoice::kGreedy;
  const ReseedingSolution sol = optimize(init, opts);
  EXPECT_EQ(sol.faults_covered, sol.faults_targeted);
}

TEST(Optimizer, ExactAtMostGreedy) {
  Fixture f;
  const auto init = f.initial();
  OptimizerOptions ex, gr;
  ex.solver = SolverChoice::kExact;
  gr.solver = SolverChoice::kGreedy;
  EXPECT_LE(optimize(init, ex).num_triplets(), optimize(init, gr).num_triplets());
}

TEST(Optimizer, SkipReductionSameCardinality) {
  // Reduction preserves optimality, so with the exact solver the final
  // triplet count must be identical with or without it.
  Fixture f;
  const auto init = f.initial();
  OptimizerOptions with, without;
  without.skip_reduction = true;
  EXPECT_EQ(optimize(init, with).num_triplets(),
            optimize(init, without).num_triplets());
}

TEST(Optimizer, StatisticsConsistent) {
  Fixture f;
  const auto init = f.initial();
  const ReseedingSolution sol = optimize(init);
  EXPECT_EQ(sol.initial_rows, init.triplets.size());
  EXPECT_EQ(sol.initial_cols, f.fl.size());
  EXPECT_EQ(sol.num_triplets(), sol.necessary_count + sol.solver_count);
  std::size_t assigned_total = 0;
  for (const auto& st : sol.selected) assigned_total += st.assigned_faults;
  EXPECT_EQ(assigned_total, sol.faults_covered);
}

TEST(Optimizer, NecessaryFlagMatchesCount) {
  Fixture f;
  const auto init = f.initial();
  const ReseedingSolution sol = optimize(init);
  std::size_t flagged = 0;
  for (const auto& st : sol.selected) {
    if (st.necessary) ++flagged;
  }
  EXPECT_EQ(flagged, sol.necessary_count);
}

TEST(Optimizer, HandlesUncoverableColumns) {
  // Hand-build an initial reseeding whose matrix has an uncoverable
  // column: optimizer must target only coverable ones.
  Fixture f;
  auto init = f.initial(4);
  // Clear one column across all rows.
  const std::size_t victim = 0;
  for (std::size_t r = 0; r < init.matrix.num_rows(); ++r) {
    init.matrix.set(r, victim, false);
  }
  const ReseedingSolution sol = optimize(init);
  EXPECT_EQ(sol.faults_uncoverable, 1u);
  EXPECT_EQ(sol.faults_targeted, f.fl.size() - 1);
  EXPECT_EQ(sol.faults_covered, sol.faults_targeted);
}

}  // namespace
}  // namespace fbist::reseed
