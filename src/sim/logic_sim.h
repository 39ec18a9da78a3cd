// 64-way parallel-pattern logic simulation.
//
// Values are bit-sliced: one machine word holds the value of a net under
// 64 independent patterns, so a full-circuit evaluation of a word costs
// one pass over the gate array with plain bitwise ops.  The simulator
// evaluates the flat topological schedule of a netlist::CompiledCircuit
// — no per-gate heap indirection — through the one schedule evaluator,
// detail::simulate_blocks (sim/gate_eval.h), at width 1; the fault
// simulator (fault_sim.h) runs the same evaluator 16 blocks wide for its
// good values, then re-evaluates only fault cones on top of them.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/compiled.h"
#include "sim/pattern.h"

namespace fbist::sim {

using Word = std::uint64_t;

/// Parallel-pattern good-value simulator over one compiled circuit,
/// which it borrows (the structure-only form is enough: good-value
/// simulation never reads a cone program).
class LogicSim {
 public:
  explicit LogicSim(const netlist::CompiledCircuit& cc) : cc_(cc) {}
  LogicSim(const netlist::CompiledCircuit&&) = delete;

  /// Simulates one word (<= 64 patterns) of a pattern set starting at
  /// pattern `base`, writing per-net values into `values` (resized to
  /// num_nets).  Pattern j of the word corresponds to bit j.
  void simulate_word(const PatternSet& patterns, std::size_t base,
                     std::vector<Word>& values) const;

  /// Simulates all patterns; result[w][net] is the value word of block w.
  std::vector<std::vector<Word>> simulate(const PatternSet& patterns) const;

  /// Convenience: single-pattern evaluation; returns per-net boolean values.
  std::vector<bool> simulate_single(const util::WideWord& pattern) const;

  /// Primary-output response of a single pattern, one bit per PO.
  util::WideWord output_response(const util::WideWord& pattern) const;

  const netlist::CompiledCircuit& compiled() const { return cc_; }

 private:
  const netlist::CompiledCircuit& cc_;
};

}  // namespace fbist::sim
