// Randomized cross-layer property tests ("fuzz" suite): many generated
// circuits, each pushed through I/O round-trips and simulator/ATPG/cover
// invariants that must hold for every valid netlist.
#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "circuits/generator.h"
#include "cover/exact.h"
#include "cover/greedy.h"
#include "cover/reduce.h"
#include "fault/collapse.h"
#include "netlist/bench_io.h"
#include "netlist/levelize.h"
#include "sim/fault_sim.h"

namespace fbist {
namespace {

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  netlist::Netlist make(std::size_t scale = 1) const {
    circuits::GeneratorSpec spec;
    util::Rng rng(GetParam());
    spec.num_inputs = 6 + rng.next_below(12);
    spec.num_outputs = 2 + rng.next_below(8);
    spec.num_gates = (30 + rng.next_below(90)) * scale;
    spec.layers = 4 + rng.next_below(8);
    spec.xor_share = rng.next_double() * 0.4;
    spec.seed = GetParam() * 7919;
    return circuits::generate(spec);
  }
};

TEST_P(FuzzTest, BenchRoundTripPreservesSimulation) {
  const auto nl = make();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto back = netlist::parse_bench_string(netlist::to_bench_string(nl));
  ASSERT_EQ(back.num_inputs(), nl.num_inputs());
  ASSERT_EQ(back.num_outputs(), nl.num_outputs());
  // Same functional behaviour on random vectors.
  const netlist::CompiledCircuit back_cc(back, /*build_cone_slices=*/false);
  sim::LogicSim a(cc), b(back_cc);
  util::Rng rng(GetParam() ^ 0xABCD);
  for (int t = 0; t < 10; ++t) {
    const auto pat = util::WideWord::random(nl.num_inputs(), rng);
    EXPECT_EQ(a.output_response(pat), b.output_response(pat)) << "trial " << t;
  }
}

TEST_P(FuzzTest, CollapsedFaultsDetectSameTestSets) {
  // A pattern set's coverage of the collapsed list must equal its
  // restriction from the full list (equivalence collapsing only).
  const auto nl = make();
  const netlist::CompiledCircuit cc(nl);
  const auto full = fault::FaultList::full(cc);
  const auto collapsed = fault::FaultList::collapsed(cc);
  sim::FaultSim fs_full(cc, full);
  sim::FaultSim fs_col(cc, collapsed);
  util::Rng rng(GetParam() ^ 0x1234);
  const auto ps = sim::PatternSet::random(nl.num_inputs(), 128, rng);
  const auto r_full = fs_full.run(ps);
  const auto r_col = fs_col.run(ps);
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    const std::size_t full_id = full.find(collapsed[i]);
    ASSERT_NE(full_id, static_cast<std::size_t>(-1));
    EXPECT_EQ(r_col.detected.get(i), r_full.detected.get(full_id))
        << fault_name(nl, collapsed[i]);
  }
}

TEST_P(FuzzTest, AtpgVerdictsAreSound) {
  const auto nl = make();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  const auto r = atpg::run_atpg(cc, fl);
  sim::FaultSim fsim(cc, fl);
  const auto check = fsim.run(r.patterns);
  for (std::size_t f = 0; f < fl.size(); ++f) {
    if (r.verdict[f] == atpg::FaultVerdict::kDetected) {
      EXPECT_TRUE(check.detected.get(f)) << fault_name(nl, fl[f]);
    }
    if (r.verdict[f] == atpg::FaultVerdict::kRedundant) {
      // A redundant fault must not be detected by any pattern we have.
      EXPECT_FALSE(check.detected.get(f)) << fault_name(nl, fl[f]);
    }
  }
}

TEST_P(FuzzTest, ReductionNeverHurtsExactOptimum) {
  // Random covering instances derived from real fault-sim data.
  const auto nl = make();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  sim::FaultSim fsim(cc, fl);
  util::Rng rng(GetParam() ^ 0x77);

  // Rows = detection sets of random 8-pattern bursts.
  const std::size_t R = 10;
  std::vector<util::BitVector> rows;
  for (std::size_t r = 0; r < R; ++r) {
    const auto ps = sim::PatternSet::random(nl.num_inputs(), 8, rng);
    rows.push_back(fsim.run(ps).detected);
  }
  // Restrict to columns covered by at least one row.
  util::BitVector coverable(fl.size());
  for (const auto& row : rows) coverable |= row;
  std::vector<std::size_t> cols;
  coverable.for_each_set([&](std::size_t c) { cols.push_back(c); });
  if (cols.empty()) GTEST_SKIP() << "burst detected nothing";

  cover::DetectionMatrix m(R, cols.size());
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (rows[r].get(cols[j])) m.set(r, j);
    }
  }
  const auto direct = cover::solve_exact(m);
  const auto red = cover::reduce(m);
  std::size_t with_red = red.necessary_rows.size();
  if (!red.residual_empty()) {
    with_red += cover::solve_exact(red.residual).rows.size();
  }
  EXPECT_EQ(with_red, direct.rows.size());
}

TEST_P(FuzzTest, LevelizationConsistentWithTopoOrder) {
  const auto nl = make();
  const auto levels = netlist::levelize(nl);
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    for (const auto f : nl.gate(id).fanin) {
      EXPECT_LT(levels[f], levels[id]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace fbist
