#include "reseed/pipeline.h"

#include <gtest/gtest.h>

namespace fbist::reseed {
namespace {

TEST(Pipeline, BuildsFromRegistryName) {
  const Pipeline p("c17");
  EXPECT_EQ(p.name(), "c17");
  EXPECT_EQ(p.circuit().num_inputs(), 5u);
  EXPECT_GT(p.faults().size(), 0u);
  EXPECT_GT(p.atpg_patterns().size(), 0u);
}

TEST(Pipeline, TargetFaultsAllDetectedByAtpg) {
  const Pipeline p("c17");
  // Pipeline drops undetected faults from the target list, so fault-
  // simulating ATPGTS on the target list must reach 100%.
  const auto r = p.fault_sim().run(p.atpg_patterns());
  EXPECT_EQ(r.num_detected(), p.faults().size());
}

TEST(Pipeline, RunProducesFeasibleSolution) {
  const Pipeline p("c17");
  const ReseedingSolution sol = p.run(tpg::TpgKind::kAdder, 16);
  EXPECT_GT(sol.num_triplets(), 0u);
  EXPECT_EQ(sol.faults_covered, sol.faults_targeted);
}

TEST(Pipeline, RunDetailedExposesMatrix) {
  const Pipeline p("c17");
  const auto [init, sol] = p.run_detailed(tpg::TpgKind::kAdder, 8);
  EXPECT_EQ(init.matrix.num_rows(), p.atpg_patterns().size());
  EXPECT_LE(sol.num_triplets(), init.triplets.size());
}

TEST(Pipeline, DifferentTpgsBothWork) {
  const Pipeline p("c17");
  for (const auto kind : {tpg::TpgKind::kAdder, tpg::TpgKind::kSubtracter,
                          tpg::TpgKind::kMultiplier, tpg::TpgKind::kLfsr}) {
    const ReseedingSolution sol = p.run(kind, 16);
    EXPECT_EQ(sol.faults_covered, sol.faults_targeted)
        << tpg::tpg_kind_name(kind);
  }
}

TEST(Pipeline, CyclesOverrideRespected) {
  const Pipeline p("c17");
  const auto [init8, sol8] = p.run_detailed(tpg::TpgKind::kAdder, 8);
  for (const auto& t : init8.triplets) EXPECT_EQ(t.cycles, 8u);
  (void)sol8;
}

TEST(Pipeline, GreedySolverOptionRespected) {
  reseed::PipelineOptions opts;
  opts.optimizer.solver = reseed::SolverChoice::kGreedy;
  const Pipeline p(circuits::make_c17(), "c17-greedy", opts);
  const auto sol = p.run(tpg::TpgKind::kAdder, 16);
  EXPECT_EQ(sol.faults_covered, sol.faults_targeted);
}

TEST(Pipeline, CustomNetlistNamePropagates) {
  reseed::Pipeline p(circuits::make_c17(), "my-block");
  EXPECT_EQ(p.name(), "my-block");
}

TEST(Pipeline, WorksOnMediumRegistryCircuit) {
  const Pipeline p("s820");
  const ReseedingSolution sol = p.run(tpg::TpgKind::kAdder, 32);
  EXPECT_GT(sol.num_triplets(), 0u);
  EXPECT_EQ(sol.faults_covered, sol.faults_targeted);
  EXPECT_LT(sol.num_triplets(), p.atpg_patterns().size());
}

}  // namespace
}  // namespace fbist::reseed
