// Old-vs-new cross-checks: the compiled-core simulators (sim::LogicSim,
// sim::FaultSim) must produce bit-identical results to the retained
// seed implementations (sim/reference_sim.h) on c17, generated
// circuits, and a scan-flattened netlist, across random pattern words.
#include <gtest/gtest.h>

#include "campaign/scheduler.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "fault/fault.h"
#include "netlist/bench_io.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "sim/reference_sim.h"
#include "util/rng.h"

namespace fbist::sim {
namespace {

using netlist::Netlist;

std::vector<Netlist> test_circuits() {
  std::vector<Netlist> circuits;
  circuits.push_back(circuits::make_c17());

  circuits::GeneratorSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 260;
  spec.seed = 31;
  circuits.push_back(circuits::generate(spec));

  spec.num_inputs = 20;
  spec.num_outputs = 9;
  spec.num_gates = 500;
  spec.xor_share = 0.3;
  spec.wide_gate_share = 0.12;  // exercises fanin > 4 in cone programs
  spec.seed = 77;
  circuits.push_back(circuits::generate(spec));

  circuits.push_back(netlist::parse_bench_string(R"(
INPUT(x0)
INPUT(x1)
INPUT(x2)
OUTPUT(z)
q0 = DFF(d0)
q1 = DFF(d1)
d0 = XOR(x0, q1)
d1 = NOR(q0, x1)
t = OR(d0, x2)
z = AND(t, d1)
)"));
  return circuits;
}

/// A circuit deep enough that its largest cone programs run to
/// thousands of words.
Netlist deep_circuit() {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 18;
  spec.num_outputs = 4;
  spec.num_gates = 1600;
  spec.layers = 14;
  spec.seed = 123;
  return circuits::generate(spec);
}

TEST(CompiledEquiv, LogicSimMatchesReferenceWordForWord) {
  for (const Netlist& nl : test_circuits()) {
    const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
    LogicSim sim(cc);
    ReferenceLogicSim ref(nl);
    util::Rng rng(5);
    // 200 patterns -> a full word, a full word, and a short tail word.
    const PatternSet ps = PatternSet::random(nl.num_inputs(), 200, rng);
    const auto got = sim.simulate(ps);
    const auto want = ref.simulate(ps);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t w = 0; w < got.size(); ++w) {
      ASSERT_EQ(got[w], want[w]) << nl.summary() << " word " << w;
    }
  }
}

TEST(CompiledEquiv, FaultSimMatchesReferenceFullAndCollapsed) {
  for (const Netlist& nl : test_circuits()) {
    for (const bool collapsed : {false, true}) {
      const netlist::CompiledCircuit cc(nl);
      const auto fl = collapsed ? fault::FaultList::collapsed(cc)
                                : fault::FaultList::full(cc);
      FaultSim fsim(cc, fl);
      ReferenceFaultSim ref(nl, fl);
      util::Rng rng(8);
      // 300 patterns are 5 blocks: the chunk path with padded chunk
      // lanes and a partial tail block at once.
      const PatternSet ps = PatternSet::random(nl.num_inputs(), 300, rng);
      const FaultSimResult got = fsim.run(ps);
      const FaultSimResult want = ref.run(ps, /*parallel=*/false);
      EXPECT_EQ(got.detected, want.detected) << nl.summary();
      EXPECT_EQ(got.earliest, want.earliest) << nl.summary();
    }
  }
}

TEST(CompiledEquiv, FaultSimSubsetMatchesReference) {
  const Netlist nl = test_circuits()[1];
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);
  util::Rng rng(12);
  // 600 patterns are 10 blocks: the masked campaign walks one full
  // chunk and one with padded lanes that ends in a partial tail block.
  const PatternSet ps = PatternSet::random(nl.num_inputs(), 600, rng);
  // Activate a pseudo-random half of the faults, including lone
  // polarities of paired sites.
  std::vector<bool> active(fl.size());
  util::BitVector seek(fl.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    active[i] = rng.next_bool();
    seek.set(i, active[i]);
  }
  const FaultSimResult want = ref.run_subset(ps, active, /*parallel=*/false);
  std::size_t late = 0;  // detections after the first block
  for (const std::uint32_t e : want.earliest) {
    if (e != kNotDetected && e >= 64) ++late;
  }
  ASSERT_GT(late, 0u) << "no detection past block 0; the chunk walk is idle";

  const FaultSimResult got = fsim.run_subset(ps, seek);
  EXPECT_EQ(got.detected, want.detected);
  EXPECT_EQ(got.earliest, want.earliest);
}

TEST(CompiledEquiv, ScanWalkVariantMatchesReferenceOnDeepCones) {
  // A circuit deep enough that a fault's active region is a small share
  // of its largest cones, so the walk's touched-gate skip leaves most
  // gates at their good values — pinned to the reference at one block
  // (the one-block walk) and at three (one padded chunk).
  const Netlist nl = deep_circuit();
  const netlist::CompiledCircuit cc(nl);
  std::size_t max_prog = 0;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    max_prog = std::max(max_prog, cc.cone_program(n).size());
  }
  // 2048 program words: cones several times larger than the circuits
  // above reach, where skipped gates dominate a walk.
  ASSERT_GE(max_prog, 2048u) << "circuit no longer has deep cones; enlarge it";

  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);
  util::Rng rng(9);
  for (const std::size_t n : {192, 64}) {
    SCOPED_TRACE("patterns=" + std::to_string(n));
    const PatternSet ps = PatternSet::random(nl.num_inputs(), n, rng);
    const FaultSimResult got = fsim.run(ps);
    const FaultSimResult want = ref.run(ps, /*parallel=*/false);
    EXPECT_EQ(got.detected, want.detected);
    EXPECT_EQ(got.earliest, want.earliest);
  }
}

// Sites always go through the shared pool; the result must not depend
// on how many workers it has.  The deep circuit keeps a 1024-pattern
// campaign busy long enough for the 4-worker pool's workers to join its
// site loop.
TEST(CompiledEquiv, FaultSimParallelMatchesSerial) {
  const Netlist nl = deep_circuit();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);
  util::Rng rng(21);
  const PatternSet ps = PatternSet::random(nl.num_inputs(), 1024, rng);
  campaign::Scheduler::global().set_workers(1);
  const FaultSimResult ser = fsim.run(ps);
  campaign::Scheduler::global().set_workers(4);
  const FaultSimResult par = fsim.run(ps);
  campaign::Scheduler::global().set_workers(0);  // restore default
  EXPECT_EQ(par.detected, ser.detected);
  EXPECT_EQ(par.earliest, ser.earliest);
}

}  // namespace
}  // namespace fbist::sim
