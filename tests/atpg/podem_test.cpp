#include "atpg/podem.h"

#include <gtest/gtest.h>

#include "circuits/generator.h"
#include "circuits/registry.h"
#include "sim/detects.h"
#include "sim/fault_sim.h"

namespace fbist::atpg {
namespace {

using netlist::GateType;
using netlist::Netlist;

// X-fill helper: fill don't-cares with zeros.
util::WideWord zero_fill(const PodemResult& r) { return r.pattern; }

TEST(Podem, FindsTestForEveryC17Fault) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  sim::FaultSim fsim(cc, fl);
  Podem podem(cc);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const PodemResult r = podem.generate(fl[fid]);
    ASSERT_EQ(r.status, PodemStatus::kTestFound)
        << fault_name(nl, fl[fid]);
    EXPECT_TRUE(sim::detects(fsim, zero_fill(r), fid))
        << fault_name(nl, fl[fid]) << " pattern " << r.pattern.to_hex();
  }
}

TEST(Podem, GeneratedPatternsDetectOnGeneratedCircuit) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 120;
  spec.seed = 31;
  const Netlist nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  sim::FaultSim fsim(cc, fl);
  Podem podem(cc);

  std::size_t found = 0, untestable = 0, aborted = 0;
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const PodemResult r = podem.generate(fl[fid]);
    switch (r.status) {
      case PodemStatus::kTestFound:
        ++found;
        EXPECT_TRUE(sim::detects(fsim, zero_fill(r), fid))
            << fault_name(nl, fl[fid]);
        break;
      case PodemStatus::kUntestable:
        ++untestable;
        break;
      case PodemStatus::kAborted:
        ++aborted;
        break;
    }
  }
  // Sanity: the vast majority of faults should get a verdict.
  EXPECT_GT(found, fl.size() / 2);
  EXPECT_LT(aborted, fl.size() / 10);
}

TEST(Podem, ProvesRedundancy) {
  // y = OR(a, NOT(a)) is constantly 1 => y stuck-at-1 is undetectable.
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto na = nl.add_gate(GateType::kNot, "na", {a});
  const auto y = nl.add_gate(GateType::kOr, "y", {a, na});
  const auto out = nl.add_gate(GateType::kBuf, "out", {y});
  nl.mark_output(out);

  const netlist::CompiledCircuit cc(nl);
  Podem podem(cc);
  const PodemResult r1 = podem.generate(fault::Fault{y, true});
  EXPECT_EQ(r1.status, PodemStatus::kUntestable);
  // y stuck-at-0 *is* testable (any input works).
  const PodemResult r0 = podem.generate(fault::Fault{y, false});
  EXPECT_EQ(r0.status, PodemStatus::kTestFound);
}

TEST(Podem, UntestableDueToBlockedPropagation) {
  // h = AND(g, NOT(g)) is constant 0, so h stuck-at-0 never changes the
  // circuit and is untestable; h stuck-at-1 flips the constant and any
  // pattern detects it.
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kAnd, "g", {a, b});
  const auto ng = nl.add_gate(GateType::kNot, "ng", {g});
  const auto h = nl.add_gate(GateType::kAnd, "h", {g, ng});
  nl.mark_output(h);
  const netlist::CompiledCircuit cc(nl);
  Podem podem(cc);
  EXPECT_EQ(podem.generate(fault::Fault{h, false}).status,
            PodemStatus::kUntestable);
  EXPECT_EQ(podem.generate(fault::Fault{h, true}).status,
            PodemStatus::kTestFound);
}

TEST(Podem, CareBitsAreSubsetOfInputs) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  Podem podem(cc);
  const PodemResult r = podem.generate(fl[0]);
  ASSERT_EQ(r.status, PodemStatus::kTestFound);
  EXPECT_EQ(r.care.bits(), nl.num_inputs());
  // Pattern bits outside care must be zero (unfilled).
  for (std::size_t i = 0; i < r.pattern.bits(); ++i) {
    if (!r.care.get_bit(i)) {
      EXPECT_FALSE(r.pattern.get_bit(i));
    }
  }
}

TEST(Podem, DecisionStatisticsPopulated) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  Podem podem(cc);
  std::size_t total_decisions = 0;
  for (std::size_t fid = 0; fid < 20 && fid < fl.size(); ++fid) {
    total_decisions += podem.generate(fl[fid]).decisions;
  }
  EXPECT_GT(total_decisions, 0u);
}

// Parameterized property: PODEM patterns validated by fault simulation
// across a sweep of generator seeds.
class PodemPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemPropertyTest, PatternsValidatedBySimulation) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 60;
  spec.seed = GetParam();
  const Netlist nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  sim::FaultSim fsim(cc, fl);
  Podem podem(cc);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const PodemResult r = podem.generate(fl[fid]);
    if (r.status == PodemStatus::kTestFound) {
      EXPECT_TRUE(sim::detects(fsim, r.pattern, fid))
          << "seed=" << GetParam() << " fault=" << fault_name(nl, fl[fid]);
    }
    // (kUntestable / kAborted verdicts carry no pattern to validate.)
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace fbist::atpg
