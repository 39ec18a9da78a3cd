#include "fault/collapse.h"

#include <gtest/gtest.h>

#include "circuits/registry.h"
#include "fault/fault.h"
#include "netlist/compiled.h"

namespace fbist::fault {
namespace {

using netlist::GateType;
using netlist::Netlist;

TEST(Collapse, SmallerThanFullList) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const std::size_t full = FaultList::full(cc).size();
  const auto collapsed = collapse_faults(cc);
  EXPECT_LT(collapsed.size(), full);
  EXPECT_GT(collapsed.size(), 0u);
}

TEST(Collapse, BufferInputFaultsCollapsed) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kAnd, "g", {a, b});
  const auto buf = nl.add_gate(GateType::kBuf, "buf", {g});
  nl.mark_output(buf);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto faults = collapse_faults(cc);
  // g feeds only the buffer -> both g faults equivalent to buf faults.
  for (const auto& f : faults) {
    EXPECT_NE(f.net, g);
  }
}

TEST(Collapse, AndInputStuck0Collapsed) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kAnd, "g", {a, b});
  nl.mark_output(g);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto faults = collapse_faults(cc);
  // a/0 and b/0 are equivalent to g/0 (inputs are fanout-free here).
  for (const auto& f : faults) {
    if (f.net == a || f.net == b) {
      EXPECT_TRUE(f.stuck_value) << "stuck-at-0 on AND input should collapse";
    }
  }
  // g keeps both faults.
  std::size_t g_count = 0;
  for (const auto& f : faults) {
    if (f.net == g) ++g_count;
  }
  EXPECT_EQ(g_count, 2u);
}

TEST(Collapse, OrInputStuck1Collapsed) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kOr, "g", {a, b});
  nl.mark_output(g);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto faults = collapse_faults(cc);
  for (const auto& f : faults) {
    if (f.net == a || f.net == b) {
      EXPECT_FALSE(f.stuck_value) << "stuck-at-1 on OR input should collapse";
    }
  }
}

TEST(Collapse, FanoutStemKeepsBothFaults) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  // a has fanout 2 -> no collapsing on a.
  const auto g1 = nl.add_gate(GateType::kAnd, "g1", {a, b});
  const auto g2 = nl.add_gate(GateType::kOr, "g2", {a, b});
  nl.mark_output(g1);
  nl.mark_output(g2);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto faults = collapse_faults(cc);
  std::size_t a_count = 0;
  for (const auto& f : faults) {
    if (f.net == a) ++a_count;
  }
  EXPECT_EQ(a_count, 2u);
}

TEST(Collapse, PrimaryOutputNetNeverCollapsed) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto g = nl.add_gate(GateType::kBuf, "g", {a});
  const auto h = nl.add_gate(GateType::kNot, "h", {g});
  nl.mark_output(g);  // g is a PO *and* feeds h
  nl.mark_output(h);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto faults = collapse_faults(cc);
  std::size_t g_count = 0;
  for (const auto& f : faults) {
    if (f.net == g) ++g_count;
  }
  EXPECT_EQ(g_count, 2u);
}

TEST(Collapse, XorInputsNotCollapsed) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kXor, "g", {a, b});
  nl.mark_output(g);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto faults = collapse_faults(cc);
  // XOR has no structural equivalence: 2 faults per net = 6 total.
  EXPECT_EQ(faults.size(), 6u);
}

TEST(Collapse, C17CollapsedCount) {
  // c17 classic result: 22 full faults; NAND input s-a-0 collapsing on
  // the fanout-free inputs removes a known subset.  We assert the
  // structural invariants rather than a magic number: smaller than
  // full, and every output fault survives.
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto faults = collapse_faults(cc);
  EXPECT_LT(faults.size(), 22u);
  for (const char* name : {"G22", "G23"}) {
    std::size_t count = 0;
    for (const auto& f : faults) {
      if (f.net == nl.find(name)) ++count;
    }
    EXPECT_EQ(count, 2u) << name;
  }
}

}  // namespace
}  // namespace fbist::fault
