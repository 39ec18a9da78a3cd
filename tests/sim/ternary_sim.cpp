#include "sim/ternary_sim.h"

#include <stdexcept>

namespace fbist::sim {

using netlist::CompiledCircuit;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

namespace {

TernaryValue t_not(TernaryValue a) {
  if (a == TernaryValue::kX) return TernaryValue::kX;
  return a == TernaryValue::k0 ? TernaryValue::k1 : TernaryValue::k0;
}

TernaryValue t_and(TernaryValue a, TernaryValue b) {
  if (a == TernaryValue::k0 || b == TernaryValue::k0) return TernaryValue::k0;
  if (a == TernaryValue::k1 && b == TernaryValue::k1) return TernaryValue::k1;
  return TernaryValue::kX;
}

TernaryValue t_or(TernaryValue a, TernaryValue b) {
  if (a == TernaryValue::k1 || b == TernaryValue::k1) return TernaryValue::k1;
  if (a == TernaryValue::k0 && b == TernaryValue::k0) return TernaryValue::k0;
  return TernaryValue::kX;
}

TernaryValue t_xor(TernaryValue a, TernaryValue b) {
  if (a == TernaryValue::kX || b == TernaryValue::kX) return TernaryValue::kX;
  return a == b ? TernaryValue::k0 : TernaryValue::k1;
}

/// Evaluates one gate over the per-net value array via the compiled
/// CSR fanin span — no per-gate fanin buffer copies.
TernaryValue eval_ternary(GateType type, const netlist::Span<NetId> fanin,
                          const std::vector<TernaryValue>& v) {
  switch (type) {
    case GateType::kInput:
      throw std::logic_error("eval_ternary on primary input");
    case GateType::kBuf:
      return v[fanin[0]];
    case GateType::kNot:
      return t_not(v[fanin[0]]);
    case GateType::kAnd:
    case GateType::kNand: {
      TernaryValue r = v[fanin[0]];
      for (std::size_t i = 1; i < fanin.size(); ++i) r = t_and(r, v[fanin[i]]);
      return type == GateType::kNand ? t_not(r) : r;
    }
    case GateType::kOr:
    case GateType::kNor: {
      TernaryValue r = v[fanin[0]];
      for (std::size_t i = 1; i < fanin.size(); ++i) r = t_or(r, v[fanin[i]]);
      return type == GateType::kNor ? t_not(r) : r;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      TernaryValue r = v[fanin[0]];
      for (std::size_t i = 1; i < fanin.size(); ++i) r = t_xor(r, v[fanin[i]]);
      return type == GateType::kXnor ? t_not(r) : r;
    }
  }
  return TernaryValue::kX;
}

}  // namespace

std::vector<TernaryValue> TernarySim::simulate_impl(
    const TestCube& cube, const fault::Fault* fault) const {
  const CompiledCircuit& cc = cc_;
  if (cube.pattern.bits() != cc.num_inputs()) {
    throw std::invalid_argument("ternary_simulate: cube width mismatch");
  }
  std::vector<TernaryValue> v(cc.num_nets(), TernaryValue::kX);
  const auto& inputs = cc.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (cube.care.get_bit(i)) {
      v[inputs[i]] =
          cube.pattern.get_bit(i) ? TernaryValue::k1 : TernaryValue::k0;
    }
  }
  // A faulty input net holds its stuck value even when the cube leaves
  // it unassigned — the fault is a *known* value in the faulty machine.
  if (fault != nullptr && cc.type(fault->net) == GateType::kInput) {
    v[fault->net] = fault->stuck_value ? TernaryValue::k1 : TernaryValue::k0;
  }
  for (const NetId id : cc.schedule()) {
    v[id] = eval_ternary(cc.type(id), cc.fanin(id), v);
    if (fault != nullptr && id == fault->net) {
      v[id] = fault->stuck_value ? TernaryValue::k1 : TernaryValue::k0;
    }
  }
  return v;
}

std::vector<TernaryValue> TernarySim::simulate(const TestCube& cube) const {
  return simulate_impl(cube, nullptr);
}

std::vector<TernaryValue> TernarySim::simulate_faulty(
    const TestCube& cube, const fault::Fault& fault) const {
  return simulate_impl(cube, &fault);
}

bool TernarySim::robustly_detects(const TestCube& cube,
                                  const fault::Fault& fault) const {
  const auto good = simulate_impl(cube, nullptr);
  const auto bad = simulate_impl(cube, &fault);
  for (const NetId o : cc_.outputs()) {
    if (good[o] != TernaryValue::kX && bad[o] != TernaryValue::kX &&
        good[o] != bad[o]) {
      return true;
    }
  }
  return false;
}

std::vector<TernaryValue> ternary_simulate(const Netlist& nl,
                                           const TestCube& cube) {
  const CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  return TernarySim(cc).simulate(cube);
}

std::vector<TernaryValue> ternary_simulate_faulty(const Netlist& nl,
                                                  const TestCube& cube,
                                                  const fault::Fault& fault) {
  const CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  return TernarySim(cc).simulate_faulty(cube, fault);
}

bool cube_robustly_detects(const Netlist& nl, const TestCube& cube,
                           const fault::Fault& fault) {
  const CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  return TernarySim(cc).robustly_detects(cube, fault);
}

}  // namespace fbist::sim
