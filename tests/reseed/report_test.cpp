#include "reseed/report.h"

#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "circuits/registry.h"
#include "reseed/initial_builder.h"
#include "tpg/accumulator.h"

namespace fbist::reseed {
namespace {

ReseedingSolution sample_solution() {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  sim::FaultSim fsim(cc, fl);
  const auto atpg = atpg::run_atpg(cc, fl);
  tpg::AdderTpg tpg(nl.num_inputs());
  BuilderOptions opts;
  opts.cycles_per_triplet = 8;
  return optimize(build_initial_reseeding(fsim, tpg, atpg.patterns, opts));
}

TEST(Report, Table1RowRendersCells) {
  util::Table t;
  t.set_header({"circuit", "a#", "alen", "b#", "blen"});
  append_table1_row(t, "c432", {{5, 100, true}, {0, 0, false}});
  ASSERT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.row(0)[0], "c432");
  EXPECT_EQ(t.row(0)[1], "5");
  EXPECT_EQ(t.row(0)[2], "100");
  EXPECT_EQ(t.row(0)[3], "-");
  EXPECT_EQ(t.row(0)[4], "-");
}

TEST(Report, SolutionStringMentionsKeyNumbers) {
  const auto sol = sample_solution();
  const std::string s = solution_to_string(sol, "label");
  EXPECT_NE(s.find("label"), std::string::npos);
  EXPECT_NE(s.find("triplets=" + std::to_string(sol.num_triplets())),
            std::string::npos);
  EXPECT_NE(s.find("test_length=" + std::to_string(sol.test_length)),
            std::string::npos);
  // One line per selected triplet.
  std::size_t lines = 0;
  for (const char c : s) {
    if (c == '\n') ++lines;
  }
  EXPECT_GE(lines, 2u + sol.num_triplets());
}

TEST(Report, SolutionStringMarksNecessary) {
  const auto sol = sample_solution();
  if (sol.necessary_count > 0) {
    EXPECT_NE(solution_to_string(sol).find("[necessary]"), std::string::npos);
  }
}

TEST(Report, Table2CellMirrorsSolution) {
  const auto sol = sample_solution();
  const Table2Cell c = table2_cell(sol);
  EXPECT_EQ(c.necessary, sol.necessary_count);
  EXPECT_EQ(c.from_solver, sol.solver_count);
  EXPECT_EQ(c.residual_rows, sol.residual_rows);
  EXPECT_EQ(c.residual_cols, sol.residual_cols);
}

}  // namespace
}  // namespace fbist::reseed
