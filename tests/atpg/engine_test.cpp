#include "atpg/engine.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "circuits/generator.h"
#include "circuits/registry.h"

namespace fbist::atpg {
namespace {

TEST(AtpgEngine, FullCoverageOnC17) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  const AtpgResult r = run_atpg(cc, fl);
  EXPECT_EQ(r.redundant_faults, 0u);  // c17 is fully testable
  EXPECT_DOUBLE_EQ(r.testable_coverage_percent(), 100.0);
  EXPECT_GT(r.patterns.size(), 0u);
}

TEST(AtpgEngine, PatternsActuallyCoverClaimedFaults) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  const AtpgResult r = run_atpg(cc, fl);
  sim::FaultSim fsim(cc, fl);
  const sim::FaultSimResult check = fsim.run(r.patterns);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    if (r.verdict[fid] == FaultVerdict::kDetected) {
      EXPECT_TRUE(check.detected.get(fid)) << fault_name(nl, fl[fid]);
    }
  }
}

TEST(AtpgEngine, CompactionPreservesCoverage) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 100;
  spec.seed = 17;
  const auto nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);

  const AtpgResult a = run_atpg(cc, fl);

  // Compaction only shrinks the pool of random-phase and deterministic
  // patterns, and every detected fault stays detected.
  EXPECT_LE(a.patterns.size(), a.random_patterns_used + a.deterministic_patterns);

  sim::FaultSim fsim(cc, fl);
  const auto check = fsim.run(a.patterns);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    if (a.verdict[fid] == FaultVerdict::kDetected) {
      EXPECT_TRUE(check.detected.get(fid));
    }
  }
}

TEST(AtpgEngine, DeterministicForSameSeed) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  AtpgOptions opts;
  opts.seed = 5;
  const AtpgResult a = run_atpg(cc, fl, opts);
  const AtpgResult b = run_atpg(cc, fl, opts);
  EXPECT_EQ(a.patterns.size(), b.patterns.size());
  EXPECT_EQ(a.verdict, b.verdict);
  for (std::size_t p = 0; p < a.patterns.size(); ++p) {
    EXPECT_EQ(a.patterns.pattern(p), b.patterns.pattern(p));
  }
}

TEST(AtpgEngine, HighCoverageOnRegistryCircuit) {
  const auto nl = circuits::make_circuit("s820");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  const AtpgResult r = run_atpg(cc, fl);
  EXPECT_GT(r.testable_coverage_percent(), 95.0);
  // A compacted deterministic set should be far smaller than the fault
  // count.
  EXPECT_LT(r.patterns.size(), fl.size());
}

// The verdict tallies must agree with the per-fault verdicts.
void expect_tallies_match_verdicts(const AtpgResult& r) {
  const auto count = [&](FaultVerdict v) {
    return static_cast<std::size_t>(
        std::count(r.verdict.begin(), r.verdict.end(), v));
  };
  EXPECT_EQ(count(FaultVerdict::kAborted), r.aborted_faults);
  EXPECT_EQ(count(FaultVerdict::kRedundant), r.redundant_faults);
}

TEST(AtpgEngine, ReportsPhaseStatistics) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  const AtpgResult r = run_atpg(cc, fl);
  EXPECT_GT(r.random_patterns_used + r.deterministic_patterns, 0u);
  expect_tallies_match_verdicts(r);

  // PODEM alone on a tiny budget leaves aborts for the tallies to count.
  AtpgOptions podem_only;
  podem_only.sat_escalate = false;
  podem_only.podem.backtrack_limit = 5;
  const AtpgResult p = run_atpg(cc, fl, podem_only);
  EXPECT_GT(p.aborted_faults, 0u);
  expect_tallies_match_verdicts(p);
}

}  // namespace
}  // namespace fbist::atpg
