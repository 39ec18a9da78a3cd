// SatEngine pins: hand-built redundant circuits certified UNSAT, SAT
// patterns validated by the fault simulator, and the PODEM-abort ->
// SAT-escalation path end-to-end through run_atpg.
#include "atpg/sat_engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "sim/detects.h"
#include "sim/fault_sim.h"

namespace fbist::atpg {
namespace {

/// y = a OR (a AND b): the AND output c is *redundant* stuck-at-0
/// (y == a either way — classic reconvergent redundancy) but testable
/// stuck-at-1 (a=0 makes good y=0, faulty y=1).
netlist::Netlist make_absorption_circuit() {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_gate(netlist::GateType::kAnd, "c", {a, b});
  const auto y = nl.add_gate(netlist::GateType::kOr, "y", {a, c});
  nl.mark_output(y);
  return nl;
}

TEST(SatEngine, CertifiesAbsorptionRedundancyAndDetectsItsDual) {
  const auto nl = make_absorption_circuit();
  const netlist::CompiledCircuit cc(nl);
  SatEngine sat(cc);
  const netlist::NetId c = nl.find("c");
  ASSERT_NE(c, netlist::kNullNet);

  const SatResult r0 = sat.generate({c, /*stuck_value=*/false});
  EXPECT_EQ(r0.status, SatStatus::kRedundant);

  const SatResult r1 = sat.generate({c, /*stuck_value=*/true});
  ASSERT_EQ(r1.status, SatStatus::kDetected);
  // The certificate's dual must be a real test: validate via FaultSim.
  const auto fl = fault::FaultList::full(cc);
  sim::FaultSim fsim(cc, fl);
  const std::size_t fid = fl.find({c, true});
  ASSERT_NE(fid, static_cast<std::size_t>(-1));
  EXPECT_TRUE(sim::detects(fsim, r1.pattern, fid));
  // Model is total: every pattern bit is a care bit.
  EXPECT_EQ(r1.care.popcount(), nl.num_inputs());
}

/// z = AND(a, NOT a) is constant 0: stuck-at-0 on z is undetectable
/// (uncontrollable to 1 — activation itself is UNSAT), stuck-at-1 is
/// detected by *every* pattern.
TEST(SatEngine, CertifiesConstantZeroNet) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto na = nl.add_gate(netlist::GateType::kNot, "na", {a});
  const auto z = nl.add_gate(netlist::GateType::kAnd, "z", {a, na});
  nl.mark_output(z);
  const netlist::CompiledCircuit cc(nl);
  SatEngine sat(cc);

  EXPECT_EQ(sat.generate({z, false}).status, SatStatus::kRedundant);

  const SatResult r = sat.generate({z, true});
  ASSERT_EQ(r.status, SatStatus::kDetected);
  const auto fl = fault::FaultList::full(cc);
  sim::FaultSim fsim(cc, fl);
  EXPECT_TRUE(sim::detects(fsim, r.pattern, fl.find({z, true})));
}

TEST(SatEngine, EveryCollapsedC432FaultIsDecided) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  SatEngine sat(cc);
  const auto fl = fault::FaultList::collapsed(cc);
  sim::FaultSim fsim(cc, fl);
  std::size_t detected = 0, redundant = 0;
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const SatResult r = sat.generate(fl[fid]);
    ASSERT_NE(r.status, SatStatus::kAborted) << fault_name(nl, fl[fid]);
    if (r.status == SatStatus::kDetected) {
      EXPECT_TRUE(sim::detects(fsim, r.pattern, fid))
          << fault_name(nl, fl[fid]);
      ++detected;
    } else {
      ++redundant;
    }
  }
  EXPECT_GT(detected, 0u);
  // c432's collapsed list contains genuinely redundant faults.
  EXPECT_GT(redundant, 0u);
}

TEST(SatEngine, DeterministicAcrossCallsAndEngines) {
  const auto nl = circuits::make_circuit("c880");
  const netlist::CompiledCircuit cc(nl);
  SatEngine sat_a(cc);
  SatEngine sat_b(cc);
  const auto fl = fault::FaultList::collapsed(cc);
  for (std::size_t fid = 0; fid < fl.size(); fid += 17) {
    const SatResult x = sat_a.generate(fl[fid]);
    const SatResult y = sat_a.generate(fl[fid]);  // same engine again
    const SatResult z = sat_b.generate(fl[fid]);  // fresh engine
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.status, z.status);
    if (x.status == SatStatus::kDetected) {
      EXPECT_EQ(x.pattern, y.pattern);
      EXPECT_EQ(x.pattern, z.pattern);
    }
    EXPECT_EQ(x.decisions, z.decisions);
    EXPECT_EQ(x.conflicts, z.conflicts);
  }
}

// One engine answers a fault with a large cone, then faults with ever
// smaller cones, plain and structural miters interleaved; every answer
// must equal a fresh engine's.  A miter built on what the previous,
// larger one left behind (watch storage of variables past the image,
// per-net maps of the last cone) would answer differently.
TEST(SatEngine, ReusedEngineAnswersLikeAFreshOne) {
  const auto nl = circuits::make_circuit("c1355");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  std::vector<std::size_t> by_cone(fl.size());
  for (std::size_t fid = 0; fid < fl.size(); ++fid) by_cone[fid] = fid;
  std::stable_sort(by_cone.begin(), by_cone.end(), [&](std::size_t a, std::size_t b) {
    return cc.cone_gates(fl[a].net).size() > cc.cone_gates(fl[b].net).size();
  });

  SatEngine reused(cc);
  std::size_t redundant = 0;
  for (std::size_t i = 0; i < by_cone.size(); i += by_cone.size() / 40) {
    const fault::Fault& f = fl[by_cone[i]];
    SCOPED_TRACE(fault_name(nl, f) + ", cone of " +
                 std::to_string(cc.cone_gates(f.net).size()) + " gates");
    bool verdict = false;
    SatResult got;
    if (i % 2 == 0) {
      got = reused.generate(f);
      verdict = reused.proves_redundant(f);
    } else {
      verdict = reused.proves_redundant(f);
      got = reused.generate(f);
    }
    const SatResult want = SatEngine(cc).generate(f);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.pattern, want.pattern);
    EXPECT_EQ(got.conflicts, want.conflicts);
    EXPECT_EQ(got.decisions, want.decisions);
    EXPECT_EQ(got.propagations, want.propagations);
    EXPECT_EQ(verdict, SatEngine(cc).proves_redundant(f));
    if (verdict) ++redundant;
  }
  EXPECT_GT(redundant, 0u);  // the structural miter's UNSAT path ran too
}

// End-to-end escalation through run_atpg: a backtrack limit of zero
// makes PODEM abort on its first backtrack, so the hard faults of a
// generator circuit land on the SAT engine — which must clear every
// abort into a detection or a certificate.
TEST(SatEngine, RunAtpgEscalatesPodemAbortsToSat) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 14;
  spec.num_outputs = 6;
  spec.num_gates = 160;
  spec.xor_share = 0.30;
  spec.seed = 41;
  const auto nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);

  AtpgOptions off;
  off.podem.backtrack_limit = 0;
  off.sat_escalate = false;
  const AtpgResult base = run_atpg(cc, fl, off);
  ASSERT_GT(base.aborted_faults, 0u)  // the premise: PODEM really aborts
      << "generator spec no longer produces PODEM aborts; re-seed";
  EXPECT_EQ(base.sat_detected_faults, 0u);
  EXPECT_EQ(base.sat_redundant_faults, 0u);

  AtpgOptions on = off;
  on.sat_escalate = true;
  const AtpgResult r = run_atpg(cc, fl, on);
  EXPECT_EQ(r.aborted_faults, 0u);
  EXPECT_GT(r.sat_detected_faults + r.sat_redundant_faults, 0u);
  EXPECT_DOUBLE_EQ(r.testable_coverage_percent(), 100.0);

  // Claimed detections are honest: the final pattern set covers them.
  sim::FaultSim fsim(cc, fl);
  const auto check = fsim.run(r.patterns);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    if (r.verdict[fid] == FaultVerdict::kDetected) {
      EXPECT_TRUE(check.detected.get(fid)) << fault_name(nl, fl[fid]);
    }
  }
}

TEST(SatEngine, ConflictLimitAborts) {
  // A one-conflict budget cannot decide c880's hard faults: the engine
  // must answer kAborted (never a wrong certificate).
  const auto nl = circuits::make_circuit("c880");
  const netlist::CompiledCircuit cc(nl);
  SatEngineOptions opts;
  opts.conflict_limit = 1;
  SatEngine sat(cc, opts);
  const auto fl = fault::FaultList::collapsed(cc);
  std::size_t aborted = 0;
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    if (sat.generate(fl[fid]).status == SatStatus::kAborted) ++aborted;
  }
  EXPECT_GT(aborted, 0u);
}

}  // namespace
}  // namespace fbist::atpg
