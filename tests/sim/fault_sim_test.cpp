#include "sim/fault_sim.h"

#include <gtest/gtest.h>

#include "campaign/scheduler.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "sim/detects.h"

namespace fbist::sim {
namespace {

using netlist::GateType;
using netlist::Netlist;

// Reference detection check: simulate good and faulty circuits naively.
bool reference_detects(const Netlist& nl, const fault::Fault& f,
                       const util::WideWord& pattern) {
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  LogicSim sim(cc);
  const auto good = sim.simulate_single(pattern);
  // Faulty evaluation: force f.net after computing each gate.
  std::vector<bool> v(nl.num_nets(), false);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    v[nl.inputs()[i]] = pattern.get_bit(i);
  }
  if (nl.gate(f.net).type == GateType::kInput) v[f.net] = f.stuck_value;
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    const auto& g = nl.gate(id);
    if (g.type != GateType::kInput) {
      bool r = v[g.fanin[0]];
      switch (g.type) {
        case GateType::kBuf: break;
        case GateType::kNot: r = !r; break;
        case GateType::kAnd:
        case GateType::kNand:
          for (std::size_t i = 1; i < g.fanin.size(); ++i) r = r && v[g.fanin[i]];
          if (g.type == GateType::kNand) r = !r;
          break;
        case GateType::kOr:
        case GateType::kNor:
          for (std::size_t i = 1; i < g.fanin.size(); ++i) r = r || v[g.fanin[i]];
          if (g.type == GateType::kNor) r = !r;
          break;
        case GateType::kXor:
        case GateType::kXnor:
          for (std::size_t i = 1; i < g.fanin.size(); ++i) r = r != v[g.fanin[i]];
          if (g.type == GateType::kXnor) r = !r;
          break;
        default: break;
      }
      v[id] = r;
    }
    if (id == f.net) v[id] = f.stuck_value;
  }
  for (const auto o : nl.outputs()) {
    if (v[o] != good[o]) return true;
  }
  return false;
}

TEST(FaultSim, MatchesReferenceOnC17AllFaultsAllPatterns) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  FaultSim fsim(cc, fl);

  for (unsigned vec = 0; vec < 32; ++vec) {
    util::WideWord pat(5);
    for (std::size_t i = 0; i < 5; ++i) pat.set_bit(i, (vec >> i) & 1);
    for (std::size_t fid = 0; fid < fl.size(); ++fid) {
      EXPECT_EQ(detects(fsim, pat, fid), reference_detects(nl, fl[fid], pat))
          << "vec=" << vec << " fault=" << fault_name(nl, fl[fid]);
    }
  }
}

TEST(FaultSim, EarliestIndexIsFirstDetectingPattern) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  FaultSim fsim(cc, fl);

  util::Rng rng(9);
  const PatternSet ps = PatternSet::random(5, 100, rng);
  const FaultSimResult r = fsim.run(ps);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    if (!r.detected.get(fid)) {
      EXPECT_EQ(r.earliest[fid], kNotDetected);
      continue;
    }
    const std::uint32_t idx = r.earliest[fid];
    // The reported pattern must detect the fault...
    EXPECT_TRUE(detects(fsim, ps.pattern(idx), fid));
    // ...and no earlier pattern may.
    for (std::uint32_t p = 0; p < idx; ++p) {
      EXPECT_FALSE(detects(fsim, ps.pattern(p), fid))
          << "fault " << fid << " detected earlier at " << p;
    }
  }
}

// Every campaign distributes its sites over the shared pool, a one-block
// campaign's too; the result must not depend on how many workers it has.
// The circuit is deep enough for the 4-worker pool's workers to join the
// site loop at one block (64 patterns) and at three.
TEST(FaultSim, ParallelAndSerialAgree) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 1600;
  spec.layers = 14;
  spec.seed = 15;
  const Netlist nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);

  util::Rng rng(77);
  for (const std::size_t n : {64, 192}) {
    SCOPED_TRACE("patterns=" + std::to_string(n));
    const PatternSet ps = PatternSet::random(16, n, rng);
    campaign::Scheduler::global().set_workers(1);
    const FaultSimResult ser = fsim.run(ps);
    campaign::Scheduler::global().set_workers(4);
    const FaultSimResult par = fsim.run(ps);
    campaign::Scheduler::global().set_workers(0);  // restore default
    EXPECT_EQ(par.detected, ser.detected);
    EXPECT_EQ(par.earliest, ser.earliest);
  }
}

TEST(FaultSim, SubsetRunIgnoresInactive) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  FaultSim fsim(cc, fl);
  util::Rng rng(3);
  const PatternSet ps = PatternSet::random(5, 64, rng);

  util::BitVector seek(fl.size());
  seek.set(2);
  seek.set(7);
  const FaultSimResult r = fsim.run_subset(ps, seek);
  r.detected.for_each_set([&](std::size_t fid) {
    EXPECT_TRUE(fid == 2 || fid == 7);
  });
}

TEST(FaultSim, EmptyPatternsDetectNothing) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  FaultSim fsim(cc, fl);
  const PatternSet empty(5, 0);
  const FaultSimResult r = fsim.run(empty);
  EXPECT_EQ(r.num_detected(), 0u);
}

TEST(FaultSim, CoveragePercent) {
  FaultSimResult r;
  r.detected = util::BitVector(10);
  r.detected.set(0);
  r.detected.set(1);
  EXPECT_DOUBLE_EQ(r.coverage_percent(10), 20.0);
  EXPECT_DOUBLE_EQ(r.coverage_percent(0), 100.0);
}

TEST(FaultSim, RandomPatternsDetectMostC17Faults) {
  // c17 is tiny and fully random testable; 64 random patterns should
  // catch everything.
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  FaultSim fsim(cc, fl);
  util::Rng rng(21);
  const PatternSet ps = PatternSet::random(5, 64, rng);
  const FaultSimResult r = fsim.run(ps);
  EXPECT_EQ(r.num_detected(), fl.size());
}

}  // namespace
}  // namespace fbist::sim
