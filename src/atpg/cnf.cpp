#include "atpg/cnf.h"

#include <stdexcept>

namespace fbist::atpg {

namespace {

/// out <-> AND(fanin...), every fanin negated when `negated` (the OR
/// family by De Morgan): out -> fi per fanin, then (fi...) -> out.
void emit_and_family(Solver& solver, SatLit out, const SatLit* fanin,
                     std::size_t n, bool negated) {
  for (std::size_t i = 0; i < n; ++i) {
    solver.add_clause({~out, negated ? ~fanin[i] : fanin[i]});
  }
  solver.add_clause(out, fanin, n, /*negate_tail=*/!negated);
}

}  // namespace

void emit_and_cnf(Solver& solver, SatLit out, const SatLit* fanin,
                  std::size_t n) {
  emit_and_family(solver, out, fanin, n, /*negated=*/false);
}

void emit_xor_cnf(Solver& solver, SatLit out, SatLit a, SatLit b) {
  // Four clauses excluding every assignment where out != a ^ b.
  solver.add_clause({~out, a, b});
  solver.add_clause({~out, ~a, ~b});
  solver.add_clause({out, ~a, b});
  solver.add_clause({out, a, ~b});
}

namespace {

/// out <-> XOR(fanin...): chain 2-input XORs through fresh aux vars,
/// with the final stage writing `out` directly.
void emit_xor_chain(Solver& solver, SatLit out, const SatLit* fanin,
                    std::size_t n) {
  SatLit acc = fanin[0];
  for (std::size_t i = 1; i < n; ++i) {
    const SatLit stage =
        (i + 1 == n) ? out : mk_lit(solver.new_var());
    emit_xor_cnf(solver, stage, acc, fanin[i]);
    acc = stage;
  }
}

}  // namespace

void emit_gate_cnf(Solver& solver, netlist::GateType type, SatLit out,
                   const SatLit* fanin, std::size_t n) {
  using netlist::GateType;
  switch (type) {
    case GateType::kBuf:
      solver.add_clause({~out, fanin[0]});
      solver.add_clause({out, ~fanin[0]});
      return;
    case GateType::kNot:
      solver.add_clause({~out, ~fanin[0]});
      solver.add_clause({out, fanin[0]});
      return;
    case GateType::kAnd:
      emit_and_cnf(solver, out, fanin, n);
      return;
    case GateType::kNand:
      emit_and_cnf(solver, ~out, fanin, n);
      return;
    case GateType::kOr:
    case GateType::kNor:
      // OR(f) == ~AND(~f); NOR keeps the positive output literal.
      emit_and_family(solver, type == GateType::kOr ? ~out : out, fanin, n,
                      /*negated=*/true);
      return;
    case GateType::kXor:
      emit_xor_chain(solver, out, fanin, n);
      return;
    case GateType::kXnor:
      emit_xor_chain(solver, ~out, fanin, n);
      return;
    case GateType::kInput:
      break;
  }
  throw std::logic_error("emit_gate_cnf: cannot emit an input pseudo-gate");
}

std::size_t CircuitCnf::add_timeframe() {
  const std::size_t num_nets = cc_.num_nets();
  std::vector<SatVar> vars(num_nets);
  for (std::size_t n = 0; n < num_nets; ++n) vars[n] = solver_.new_var();

  std::vector<SatLit> fanin_lits;
  for (const netlist::NetId gate : cc_.schedule()) {
    const netlist::Span<netlist::NetId> fanin = cc_.fanin(gate);
    fanin_lits.clear();
    for (const netlist::NetId f : fanin) fanin_lits.push_back(mk_lit(vars[f]));
    emit_gate_cnf(solver_, cc_.type(gate), mk_lit(vars[gate]),
                  fanin_lits.data(), fanin_lits.size());
  }
  frames_.push_back(std::move(vars));
  return frames_.size() - 1;
}

}  // namespace fbist::atpg
