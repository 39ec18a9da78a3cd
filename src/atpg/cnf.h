// Per-gate CNF emission over the compiled netlist core.
//
// The SAT ATPG engine (sat_engine.h) reasons about the circuit as a
// propositional formula: one Boolean variable per net, and for every
// gate the Tseitin clauses asserting "output variable == gate function
// of the fanin variables".  Emission walks the topological schedule of
// a netlist::CompiledCircuit — the same flat structure the simulators
// stream — so clause generation is a single linear pass.
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
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "netlist/compiled.h"
#include "netlist/netlist.h"

namespace fbist::atpg {

/// SAT variable index (0-based).
using SatVar = std::uint32_t;

/// Literal: a variable or its negation, encoded as var << 1 | neg.
struct SatLit {
  std::uint32_t code = 0;

  SatLit() = default;
  SatLit(SatVar v, bool neg) : code((v << 1) | (neg ? 1u : 0u)) {}

  SatVar var() const { return code >> 1; }
  bool neg() const { return (code & 1u) != 0; }
  SatLit operator~() const {
    SatLit l;
    l.code = code ^ 1u;
    return l;
  }
  bool operator==(const SatLit& o) const { return code == o.code; }
  bool operator!=(const SatLit& o) const { return code != o.code; }
  bool operator<(const SatLit& o) const { return code < o.code; }
};

/// Positive literal of `v` (negated when `neg`).
inline SatLit mk_lit(SatVar v, bool neg = false) { return SatLit(v, neg); }

/// Destination of clause emission.  Both the standalone Cnf database
/// and the solver itself implement this, so the good-circuit formula
/// can be emitted once into a Cnf and the per-fault miter clauses
/// directly into the solver.
class ClauseSink {
 public:
  virtual ~ClauseSink() = default;
  /// Allocates a fresh variable.
  virtual SatVar new_var() = 0;
  /// Adds one clause (disjunction of `n` literals).
  virtual void add_clause(const SatLit* lits, std::size_t n) = 0;

  void add_clause(std::initializer_list<SatLit> lits) {
    add_clause(lits.begin(), lits.size());
  }
  /// Unit clause: force `l` true.
  void add_unit(SatLit l) { add_clause(&l, 1); }
};

/// Plain clause database (CSR layout), reusable across solver
/// instances: the SAT engine emits the good-circuit formula once and
/// loads it into the one solver image that every fault's solve copies.
class Cnf : public ClauseSink {
 public:
  SatVar new_var() override { return num_vars_++; }
  void add_clause(const SatLit* lits, std::size_t n) override;
  using ClauseSink::add_clause;

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_clauses() const { return offset_.size() - 1; }
  const SatLit* clause_begin(std::size_t c) const {
    return lits_.data() + offset_[c];
  }
  std::size_t clause_size(std::size_t c) const {
    return offset_[c + 1] - offset_[c];
  }

 private:
  SatVar num_vars_ = 0;
  std::vector<std::uint32_t> offset_{0};
  std::vector<SatLit> lits_;
};

/// out <-> AND(fanin...)  (n-ary; the addAigCNF building block).
/// Negating `out` encodes NAND; negating every fanin literal encodes
/// the OR family via De Morgan.
void emit_and_cnf(ClauseSink& sink, SatLit out, const SatLit* fanin,
                  std::size_t n);

/// out <-> a XOR b  (the addXorCNF building block; negate `out` for
/// XNOR).
void emit_xor_cnf(ClauseSink& sink, SatLit out, SatLit a, SatLit b);

/// out <-> gate(fanin...) for any netlist::GateType (kInput excluded).
/// XOR/XNOR with more than two fanins chain through fresh auxiliary
/// variables allocated from `sink`.
void emit_gate_cnf(ClauseSink& sink, netlist::GateType type, SatLit out,
                   const SatLit* fanin, std::size_t n);

/// Variable map + clause emission for whole circuit copies.
///
/// Each add_timeframe() allocates one variable per net (inputs too) and
/// emits the Tseitin clauses of every scheduled gate.  Variables are
/// allocated in net-id order, so when the sink is fresh, frame 0's
/// variable of net `n` is simply `n`.
class CircuitCnf {
 public:
  CircuitCnf(const netlist::CompiledCircuit& cc, ClauseSink& sink)
      : cc_(cc), sink_(sink) {}

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
  ClauseSink& sink_;
  std::vector<std::vector<SatVar>> frames_;
};

}  // namespace fbist::atpg
