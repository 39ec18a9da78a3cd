// Per-gate CNF emission over the compiled netlist core, straight into
// the embedded solver (solver.h).
//
// The SAT ATPG engine (sat_engine.h) reasons about the circuit as a
// propositional formula: one Boolean variable per net, and for every
// gate the Tseitin clauses asserting "output variable == gate function
// of the fanin variables".  Emission walks the topological schedule of
// a netlist::CompiledCircuit — the same flat structure the simulators
// stream — so clause generation is a single linear pass, and every
// clause goes directly into the Solver it is emitted for: the engine's
// good-circuit image and its per-fault miter layers alike.
//
// The gate encodings follow the classic per-gate converter idiom
// (addAigCNF / addXorCNF): every gate kind reduces to an AND-family
// n-ary emission or a chained 2-input XOR emission, with output-literal
// polarity absorbing the inverting kinds (NAND = AND with the output
// literal negated, and so on).
//
// CircuitCnf supports *timeframe expansion*: each add_timeframe() call
// lays down one full copy of the combinational schedule over fresh
// variables.  Combinational ATPG uses exactly one frame; the hook is
// the door to sequential (iterative-logic-array) test generation,
// where frame k's state inputs are tied to frame k-1's state outputs.
#pragma once

#include <cstddef>
#include <vector>

#include "atpg/solver.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"

namespace fbist::atpg {

/// out <-> AND(fanin...)  (n-ary; the addAigCNF building block).
/// Negating `out` encodes NAND; negating every fanin literal encodes
/// the OR family via De Morgan.
void emit_and_cnf(Solver& solver, SatLit out, const SatLit* fanin,
                  std::size_t n);

/// out <-> a XOR b  (the addXorCNF building block; negate `out` for
/// XNOR).
void emit_xor_cnf(Solver& solver, SatLit out, SatLit a, SatLit b);

/// out <-> gate(fanin...) for any netlist::GateType (kInput excluded).
/// XOR/XNOR with more than two fanins chain through fresh auxiliary
/// variables allocated from `solver`.
void emit_gate_cnf(Solver& solver, netlist::GateType type, SatLit out,
                   const SatLit* fanin, std::size_t n);

/// Variable map + clause emission for whole circuit copies.
///
/// Each add_timeframe() allocates one variable per net (inputs too) and
/// emits the Tseitin clauses of every scheduled gate.  Variables are
/// allocated in net-id order, so when the solver is fresh, frame 0's
/// variable of net `n` is simply `n`.
class CircuitCnf {
 public:
  CircuitCnf(const netlist::CompiledCircuit& cc, Solver& solver)
      : cc_(cc), solver_(solver) {}

  /// Emits one full combinational copy; returns its frame index.
  std::size_t add_timeframe();

  std::size_t num_timeframes() const { return frames_.size(); }
  SatVar var(std::size_t frame, netlist::NetId net) const {
    return frames_[frame][net];
  }
  SatLit lit(std::size_t frame, netlist::NetId net, bool neg = false) const {
    return mk_lit(frames_[frame][net], neg);
  }

 private:
  const netlist::CompiledCircuit& cc_;
  Solver& solver_;
  std::vector<std::vector<SatVar>> frames_;
};

}  // namespace fbist::atpg
