// Equivalence tests pinning netlist::CompiledCircuit to the legacy
// reference walkers (levelize.h, cone.h, Netlist::fanouts) on the
// genuine c17, generated circuits, and a scan-flattened netlist; its
// cone gates, outputs, slots and programs to the reference encoder
// (cone_encoder.h) on circuits at the edges of cone compilation; and
// what those cones hold, and their program words, on every registry
// circuit to recorded digests (ConePin).
#include "netlist/compiled.h"

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "atpg/podem.h"
#include "atpg/sat_engine.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "fault/fault.h"
#include "netlist/bench_io.h"
#include "netlist/cone.h"
#include "netlist/cone_encoder.h"
#include "netlist/levelize.h"
#include "sim/fault_sim.h"
#include "sim/reference_sim.h"
#include "util/rng.h"

namespace fbist::netlist {
namespace {

std::vector<Netlist> test_circuits() {
  std::vector<Netlist> circuits;
  circuits.push_back(circuits::make_c17());

  circuits::GeneratorSpec spec;
  spec.num_inputs = 14;
  spec.num_outputs = 6;
  spec.num_gates = 180;
  spec.seed = 11;
  circuits.push_back(circuits::generate(spec));

  spec.num_inputs = 24;
  spec.num_outputs = 10;
  spec.num_gates = 420;
  spec.xor_share = 0.35;
  spec.seed = 99;
  circuits.push_back(circuits::generate(spec));

  // Scan-flattened sequential circuit: DFFs become PI/PO pairs, so the
  // compiled core must cope with nets that are both PI and PO-adjacent.
  circuits.push_back(parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
q0 = DFF(d0)
q1 = DFF(q0)
d0 = AND(a, q1)
n1 = XOR(q0, b)
y = NAND(n1, d0)
)"));
  return circuits;
}

TEST(CompiledCircuit, FanoutMatchesNetlistCache) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    const auto& legacy = nl.fanouts();
    ASSERT_EQ(cc.num_nets(), nl.num_nets());
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const auto span = cc.fanout(n);
      ASSERT_EQ(span.size(), legacy[n].size()) << "net " << nl.gate(n).name;
      for (std::size_t i = 0; i < span.size(); ++i) {
        EXPECT_EQ(span[i], legacy[n][i]) << "net " << nl.gate(n).name;
      }
    }
  }
}

TEST(CompiledCircuit, FaninAndTypesMatchGates) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const Gate& g = nl.gate(n);
      EXPECT_EQ(cc.type(n), g.type);
      const auto span = cc.fanin(n);
      ASSERT_EQ(span.size(), g.fanin.size());
      for (std::size_t i = 0; i < span.size(); ++i) {
        EXPECT_EQ(span[i], g.fanin[i]);
      }
    }
  }
}

TEST(CompiledCircuit, LevelsMatchLevelize) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    const auto legacy = levelize(nl);
    EXPECT_EQ(cc.depth(), depth(nl));
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      EXPECT_EQ(static_cast<std::size_t>(cc.level(n)), legacy[n]);
    }
  }
}

TEST(CompiledCircuit, ScheduleIsTopologicalAndComplete) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    const auto sched = cc.schedule();
    EXPECT_EQ(sched.size(), nl.num_gates());
    NetId prev = 0;
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const NetId id = sched[i];
      EXPECT_NE(cc.type(id), GateType::kInput);
      if (i > 0) EXPECT_GT(id, prev);  // ascending == topological here
      for (const NetId f : cc.fanin(id)) EXPECT_LT(f, id);
      prev = id;
    }
  }
}

TEST(CompiledCircuit, ConeSlicesMatchFanoutCone) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const Cone legacy = fanout_cone(nl, n);
      const auto view = cc.cone_gates(n);
      const std::vector<NetId> gates(view.begin(), view.end());
      ASSERT_EQ(view.size(), legacy.gates.size()) << "net " << nl.gate(n).name;
      EXPECT_EQ(gates, legacy.gates) << "net " << nl.gate(n).name;
      const auto outs = cc.cone_outputs(n);
      ASSERT_EQ(outs.size(), legacy.output_positions.size())
          << "net " << nl.gate(n).name;
      for (std::size_t i = 0; i < outs.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(outs[i]), legacy.output_positions[i]);
      }
    }
  }
}

TEST(CompiledCircuit, ConeOutputSlotsPointAtTheRightNets) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const auto view = cc.cone_gates(n);
      const std::vector<NetId> gates(view.begin(), view.end());
      const auto outs = cc.cone_outputs(n);
      const auto slots = cc.cone_output_slots(n);
      ASSERT_EQ(outs.size(), slots.size());
      for (std::size_t i = 0; i < outs.size(); ++i) {
        const NetId out_net = nl.outputs()[outs[i]];
        const std::uint32_t slot = slots[i];
        // Slot 0 is the root; slot j+1 is cone gate j.
        const NetId slot_net = slot == 0 ? n : gates[slot - 1];
        EXPECT_EQ(slot_net, out_net);
      }
    }
  }
}

TEST(CompiledCircuit, InputOutputIndexMatchesNetlist) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    EXPECT_EQ(cc.inputs(), nl.inputs());
    EXPECT_EQ(cc.outputs(), nl.outputs());
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      EXPECT_EQ(cc.input_index(n), nl.input_index(n));
      EXPECT_EQ(cc.output_index(n), nl.output_index(n));
    }
  }
}

TEST(CompiledCircuit, ReachesOutputMatchesLegacy) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    const auto legacy = reaches_output(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      EXPECT_EQ(cc.reaches_output(n), legacy[n]) << "net " << nl.gate(n).name;
    }
  }
}

TEST(CompiledCircuit, MaxConeGatesIsTheMaximum) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    std::size_t expect = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      expect = std::max(expect, cc.cone_gates(n).size());
    }
    EXPECT_EQ(cc.max_cone_gates(), expect);
  }
}

TEST(CompiledCircuit, DanglingGateDoesNotReachOutput) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto keep = nl.add_gate(GateType::kAnd, "keep", {a, b});
  nl.add_gate(GateType::kOr, "dangling", {a, b});
  nl.mark_output(keep);
  const CompiledCircuit cc(nl);
  EXPECT_TRUE(cc.reaches_output(keep));
  EXPECT_FALSE(cc.reaches_output(nl.find("dangling")));
}

/// 4100 inputs under one XOR, whose header needs the wide encoding.
Netlist wide_fanin_circuit() {
  Netlist nl;
  std::vector<NetId> ins;
  for (int i = 0; i < 4100; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
  const NetId wide = nl.add_gate(GateType::kXor, "wide", ins);
  const NetId g = nl.add_gate(GateType::kAnd, "g", {wide, ins[0]});
  const NetId h = nl.add_gate(GateType::kNor, "h", {ins[1], ins[2], g});
  nl.mark_output(h);
  nl.mark_output(wide);
  return nl;
}

/// Circuits at the edges of cone compilation: nets on both sides of
/// every multiple of 64 roots, a duplicated fanin, a dangling gate, a
/// primary output that other gates read (listed out of net order), and
/// one gate with 4100 fanins, which no narrow header can hold.
std::vector<Netlist> cone_edge_circuits() {
  std::vector<Netlist> circuits;
  for (const std::size_t nets : {63u, 64u, 65u, 129u}) {
    // The generator may add collector gates: generate at or under the
    // net count, then chain 2-input gates up to it.
    circuits::GeneratorSpec spec;
    spec.num_inputs = 9;
    spec.num_outputs = 4;
    spec.num_gates = nets - spec.num_inputs;
    spec.seed = nets;
    Netlist nl = circuits::generate(spec);
    while (nl.num_nets() > nets) {
      --spec.num_gates;
      nl = circuits::generate(spec);
    }
    NetId last = nl.outputs().back();
    while (nl.num_nets() < nets) {
      const std::string name = "pad" + std::to_string(nl.num_nets());
      last = nl.add_gate(GateType::kNand, name, {last, nl.inputs()[nl.num_nets() % 9]});
    }
    nl.mark_output(last);
    circuits.push_back(std::move(nl));
  }

  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId d = nl.add_gate(GateType::kAnd, "d", {a, a});
  const NetId e = nl.add_gate(GateType::kOr, "e", {d, b});
  const NetId y = nl.add_gate(GateType::kNand, "y", {e, c});
  const NetId z = nl.add_gate(GateType::kXor, "z", {y, d, y});
  nl.add_gate(GateType::kNor, "dangling", {a, e});
  nl.mark_output(z);
  nl.mark_output(y);
  nl.mark_output(b);
  circuits.push_back(std::move(nl));

  circuits.push_back(wide_fanin_circuit());
  return circuits;
}

/// Compares every cone array of `cc` with the reference encoder's.
void expect_cones_match_reference(const Netlist& nl, const CompiledCircuit& cc) {
  const EncodedCones ref = encode_cones(nl);
  EXPECT_EQ(cc.max_cone_gates(), ref.max_cone_gates);
  EXPECT_EQ(cc.narrow_programs(), ref.narrow);
  const auto same = [](auto span, const auto& want) {
    return std::vector<std::uint64_t>(span.begin(), span.end()) ==
           std::vector<std::uint64_t>(want.begin(), want.end());
  };
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    EXPECT_TRUE(same(cc.cone_gates(n), ref.gates[n])) << "gates of net " << n;
    EXPECT_TRUE(same(cc.cone_outputs(n), ref.outputs[n])) << "outputs of net " << n;
    EXPECT_TRUE(same(cc.cone_output_slots(n), ref.output_slots[n]))
        << "output slots of net " << n;
    EXPECT_TRUE(same(cc.cone_program(n), ref.programs[n])) << "program of net " << n;
  }
}

TEST(CompiledCircuit, ConeDataMatchesReferenceEncoder) {
  for (const Netlist& nl : test_circuits()) {
    expect_cones_match_reference(nl, CompiledCircuit(nl));
  }
  const std::size_t nets[] = {63, 64, 65, 129};
  const std::vector<Netlist> edges = cone_edge_circuits();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    SCOPED_TRACE("edge circuit " + std::to_string(i));
    if (i < 4) ASSERT_EQ(edges[i].num_nets(), nets[i]);
    const CompiledCircuit cc(edges[i]);
    EXPECT_EQ(cc.narrow_programs(), i + 1 < edges.size());
    expect_cones_match_reference(edges[i], cc);
  }
  // Narrow records of both fanin parities were compared: an odd count
  // leaves its last half-word 0.
  bool odd = false, even = false;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    for (NetId n = 0; n < edges[i].num_nets(); ++n) {
      const std::size_t k = edges[i].gate(n).fanin.size();
      if (k != 0) (k % 2 != 0 ? odd : even) = true;
    }
  }
  EXPECT_TRUE(odd && even);
}

TEST(CompiledCircuit, WideEncodingFaultSimMatchesReference) {
  const Netlist nl = wide_fanin_circuit();
  const CompiledCircuit cc(nl);
  ASSERT_FALSE(cc.narrow_programs());
  const auto fl = fault::FaultList::collapsed(cc);
  const sim::FaultSim fsim(cc, fl);
  const sim::ReferenceFaultSim ref(nl, fl);
  util::Rng rng(41);
  for (const std::size_t n : {5u, 64u, 200u}) {
    SCOPED_TRACE("patterns=" + std::to_string(n));
    const sim::PatternSet ps = sim::PatternSet::random(nl.num_inputs(), n, rng);
    const sim::FaultSimResult got = fsim.run(ps);
    const sim::FaultSimResult want = ref.run(ps);
    EXPECT_EQ(got.detected, want.detected);
    EXPECT_EQ(got.earliest, want.earliest);
  }
}

// The engines that walk cones — the fault simulator, PODEM and the SAT
// engine — refuse the structure-only form, which has no cone programs;
// the full form of the same netlist is accepted.
TEST(CompiledCircuit, ConeEnginesRejectTheStructureOnlyForm) {
  const Netlist nl = circuits::make_c17();
  const CompiledCircuit structure(nl, /*build_cone_slices=*/false);
  const CompiledCircuit full(nl);
  EXPECT_FALSE(structure.has_cone_programs());
  EXPECT_TRUE(full.has_cone_programs());
  const auto fl = fault::FaultList::collapsed(structure);
  EXPECT_THROW({ const sim::FaultSim fsim(structure, fl); },
               std::invalid_argument);
  EXPECT_THROW({ const atpg::Podem podem(structure); }, std::invalid_argument);
  EXPECT_THROW({ const atpg::SatEngine sat(structure); },
               std::invalid_argument);
  EXPECT_NO_THROW({ const sim::FaultSim fsim(full, fl); });
  EXPECT_NO_THROW({ const atpg::Podem podem(full); });
  EXPECT_NO_THROW({ const atpg::SatEngine sat(full); });
}

/// What every net's compiled cone says, whatever its encoding: the
/// largest cone, the encoding flag, and per net the cone gates, the
/// cone outputs and their slots.
std::uint64_t cone_content_digest(const CompiledCircuit& cc) {
  util::Fnv1a f;
  f.u64(cc.max_cone_gates());
  f.u64(cc.narrow_programs() ? 1 : 0);
  for (NetId n = 0; n < cc.num_nets(); ++n) {
    const auto gates = cc.cone_gates(n);
    f.u64(gates.size());
    for (const NetId g : gates) f.u64(g);
    for (const auto span : {cc.cone_outputs(n), cc.cone_output_slots(n)}) {
      f.u64(span.size());
      for (const std::uint32_t w : span) f.u64(w);
    }
  }
  return f.h;
}

/// Every net's cone program, word for word.
std::uint64_t cone_program_digest(const CompiledCircuit& cc) {
  util::Fnv1a f;
  for (NetId n = 0; n < cc.num_nets(); ++n) {
    const auto prog = cc.cone_program(n);
    f.u64(prog.size());
    for (const std::uint32_t w : prog) f.u64(w);
  }
  return f.h;
}

/// One digest per circuit set: every registry circuit, then generated
/// netlists of 5000 and 20000 gates.
template <typename Digest>
std::vector<std::uint64_t> digest_sets(Digest digest) {
  std::uint64_t registry = 0xcbf29ce484222325ull;
  for (const std::string& name : circuits::circuit_names()) {
    registry = registry * 31 + digest(CompiledCircuit(circuits::make_circuit(name)));
  }
  std::vector<std::uint64_t> sets{registry};
  for (const std::size_t gates : {5000u, 20000u}) {
    circuits::GeneratorSpec spec;
    spec.num_inputs = gates / 10;
    spec.num_outputs = gates / 10;
    spec.num_gates = gates;
    spec.seed = 7;
    sets.push_back(digest(CompiledCircuit(circuits::generate(spec))));
  }
  return sets;
}

std::string hex(const std::vector<std::uint64_t>& v) {
  std::ostringstream s;
  for (const std::uint64_t d : v) s << " 0x" << std::hex << d;
  return s.str();
}

// What the compiled cones hold, for all registry circuits and two large
// generated netlists: recorded before cone gate lists were read off the
// programs, so any compiler or encoding must reproduce it.
TEST(ConePin, RegistryAndGeneratedCircuits) {
  const std::vector<std::uint64_t> want{0x11802a39779791b2ull, 0x6da0933307f0a984ull,
                                        0x282c4eba781281c0ull};
  const std::vector<std::uint64_t> got = digest_sets(cone_content_digest);
  EXPECT_EQ(got, want) << "got" << hex(got);
}

// The same circuits' cone programs word for word.  Re-recorded only by
// a change that means to change the program encoding.
TEST(ConePin, ProgramWords) {
  const std::vector<std::uint64_t> want{0x75abca9ab51e8c77ull, 0x0397ffddb9401d3cull,
                                        0x0f058fe4d62a6798ull};
  const std::vector<std::uint64_t> got = digest_sets(cone_program_digest);
  EXPECT_EQ(got, want) << "got" << hex(got);
}

}  // namespace
}  // namespace fbist::netlist
