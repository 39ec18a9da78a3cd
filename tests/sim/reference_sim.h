// Reference (seed) simulators: test oracles and the perf baseline of the
// compiled-core rewrite.  They are compiled into the test binary and
// bench_perf only, never into the library.
//
// These are the original gate-by-gate implementations that walk the
// mutable `netlist::Netlist` (heap-allocated fanin vector per gate) and
// the on-demand `netlist::ConeIndex`.  sim::LogicSim / sim::FaultSim now
// evaluate the flat `netlist::CompiledCircuit` arrays instead; the
// old-vs-new cross-checks live in tests/sim/compiled_equiv_test.cpp and
// the old-vs-new throughput comparison in bench/bench_perf.cpp
// (BM_FaultSimReference vs BM_FaultSim).
//
// They are deliberately kept at the seed's layout and speed.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/fault.h"
#include "netlist/cone.h"
#include "netlist/netlist.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "sim/pattern.h"

namespace fbist::sim {

/// Evaluates one gate over bit-sliced fanin values: the reference
/// simulators' per-gate evaluator (the library evaluates the compiled
/// schedule through detail::eval_compiled_gate instead).
Word eval_gate(netlist::GateType type, const Word* fanin_values,
               std::size_t fanin_count);

/// Seed parallel-pattern good-value simulator (per-gate Netlist walk).
class ReferenceLogicSim {
 public:
  explicit ReferenceLogicSim(const netlist::Netlist& nl) : nl_(nl) {}

  void simulate_word(const PatternSet& patterns, std::size_t base,
                     std::vector<Word>& values) const;
  std::vector<std::vector<Word>> simulate(const PatternSet& patterns) const;

 private:
  const netlist::Netlist& nl_;
};

/// Seed PPSFP fault simulator (ConeIndex walk).  Semantics identical to
/// sim::FaultSim::run / run_subset.
class ReferenceFaultSim {
 public:
  ReferenceFaultSim(const netlist::Netlist& nl, const fault::FaultList& faults);

  FaultSimResult run(const PatternSet& patterns, bool parallel = true) const;
  FaultSimResult run_subset(const PatternSet& patterns,
                            const std::vector<bool>& active,
                            bool parallel = true) const;

 private:
  const netlist::Netlist& nl_;
  const fault::FaultList& faults_;
  ReferenceLogicSim good_sim_;
  netlist::ConeIndex cones_;
};

}  // namespace fbist::sim
