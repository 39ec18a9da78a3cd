#include "fault/fault.h"

#include <gtest/gtest.h>

#include "circuits/registry.h"
#include "netlist/compiled.h"
#include "netlist/levelize.h"

namespace fbist::fault {
namespace {

TEST(FaultList, FullListHasTwoPerReachableNet) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const FaultList fl = FaultList::full(cc);
  // c17: all 11 nets reach an output -> 22 faults.
  EXPECT_EQ(fl.size(), 22u);
}

TEST(FaultList, FullListSkipsDeadLogic) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto keep = nl.add_gate(netlist::GateType::kAnd, "keep", {a, b});
  nl.add_gate(netlist::GateType::kOr, "dead", {a, b});
  nl.mark_output(keep);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const FaultList fl = FaultList::full(cc);
  // dead gate excluded: faults on a, b, keep only.
  EXPECT_EQ(fl.size(), 6u);
  for (const auto& f : fl.faults()) {
    EXPECT_NE(f.net, nl.find("dead"));
  }
}

TEST(FaultList, FindLocatesFaults) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const FaultList fl = FaultList::full(cc);
  const Fault f{nl.find("G11"), true};
  const std::size_t id = fl.find(f);
  ASSERT_NE(id, static_cast<std::size_t>(-1));
  EXPECT_EQ(fl[id], f);
  EXPECT_EQ(fl.find(Fault{netlist::kNullNet, false}),
            static_cast<std::size_t>(-1));
}

TEST(FaultList, WithoutDropsFlagged) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const FaultList fl = FaultList::full(cc);
  std::vector<bool> drop(fl.size(), false);
  drop[0] = true;
  drop[5] = true;
  const FaultList smaller = fl.without(drop);
  EXPECT_EQ(smaller.size(), fl.size() - 2);
  EXPECT_EQ(smaller.find(fl[0]), static_cast<std::size_t>(-1));
  EXPECT_NE(smaller.find(fl[1]), static_cast<std::size_t>(-1));
}

TEST(FaultName, Format) {
  const auto nl = circuits::make_c17();
  EXPECT_EQ(fault_name(nl, Fault{nl.find("G10"), false}), "G10/0");
  EXPECT_EQ(fault_name(nl, Fault{nl.find("G10"), true}), "G10/1");
}

}  // namespace
}  // namespace fbist::fault
