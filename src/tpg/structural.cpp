#include "tpg/structural.h"

#include <stdexcept>
#include <string>

#include "sim/logic_sim.h"

namespace fbist::tpg {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

namespace {

struct Operands {
  std::vector<NetId> a;
  std::vector<NetId> b;
};

Operands add_operand_inputs(Netlist& nl, std::size_t width) {
  Operands ops;
  ops.a.reserve(width);
  ops.b.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    ops.a.push_back(nl.add_input("a" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < width; ++i) {
    ops.b.push_back(nl.add_input("b" + std::to_string(i)));
  }
  return ops;
}

/// Full adder: returns {sum, carry_out}.  `tag` uniquifies net names.
std::pair<NetId, NetId> full_adder(Netlist& nl, NetId a, NetId b, NetId cin,
                                   const std::string& tag) {
  const NetId axb = nl.add_gate(GateType::kXor, tag + "_axb", {a, b});
  const NetId sum = nl.add_gate(GateType::kXor, tag + "_sum", {axb, cin});
  const NetId ab = nl.add_gate(GateType::kAnd, tag + "_ab", {a, b});
  const NetId cx = nl.add_gate(GateType::kAnd, tag + "_cx", {axb, cin});
  const NetId cout = nl.add_gate(GateType::kOr, tag + "_cout", {ab, cx});
  return {sum, cout};
}

/// Half adder: returns {sum, carry_out}.
std::pair<NetId, NetId> half_adder(Netlist& nl, NetId a, NetId b,
                                   const std::string& tag) {
  const NetId sum = nl.add_gate(GateType::kXor, tag + "_sum", {a, b});
  const NetId cout = nl.add_gate(GateType::kAnd, tag + "_cout", {a, b});
  return {sum, cout};
}

void mark_result(Netlist& nl, const std::vector<NetId>& y) {
  for (std::size_t i = 0; i < y.size(); ++i) {
    // Result nets must be named y<i> in PO order; add buffers where the
    // computing gate already carries another name.
    const NetId out =
        nl.add_gate(GateType::kBuf, "y" + std::to_string(i), {y[i]});
    nl.mark_output(out);
  }
}

}  // namespace

Netlist structural_adder(std::size_t width) {
  if (width == 0) throw std::invalid_argument("structural_adder: zero width");
  Netlist nl;
  const Operands ops = add_operand_inputs(nl, width);

  std::vector<NetId> sums(width);
  NetId carry = netlist::kNullNet;
  for (std::size_t i = 0; i < width; ++i) {
    const std::string tag = "fa" + std::to_string(i);
    if (i == 0) {
      auto [s, c] = half_adder(nl, ops.a[0], ops.b[0], tag);
      sums[0] = s;
      carry = c;
    } else {
      auto [s, c] = full_adder(nl, ops.a[i], ops.b[i], carry, tag);
      sums[i] = s;
      carry = c;
    }
  }
  // Final carry is intentionally unconnected logically, but it must not
  // dangle (validate/observability); expose it as an extra output named
  // "cout" after the y bits.
  mark_result(nl, sums);
  const NetId cout = nl.add_gate(GateType::kBuf, "cout", {carry});
  nl.mark_output(cout);
  nl.validate();
  return nl;
}

Netlist structural_subtracter(std::size_t width) {
  if (width == 0) throw std::invalid_argument("structural_subtracter: zero width");
  Netlist nl;
  const Operands ops = add_operand_inputs(nl, width);

  // a - b = a + ~b + 1: invert b, seed carry chain with 1 by using a
  // full adder stage whose carry-in is replaced algebraically:
  // stage 0 with cin=1: sum = a0 ^ ~b0 ^ 1 = a0 xnor ~b0 ... simpler to
  // construct explicitly: sum0 = a0 ^ ~b0 ^ 1 = ~(a0 ^ ~b0) = a0 xnor ~b0.
  std::vector<NetId> sums(width);
  std::vector<NetId> nb(width);
  for (std::size_t i = 0; i < width; ++i) {
    nb[i] = nl.add_gate(GateType::kNot, "nb" + std::to_string(i), {ops.b[i]});
  }
  // Stage 0 (cin = 1): sum = a ^ nb ^ 1 = XNOR(a, nb);
  // cout = (a & nb) | (1 & (a ^ nb)) = (a & nb) | (a ^ nb) = a | nb.
  sums[0] = nl.add_gate(GateType::kXnor, "fs0_sum", {ops.a[0], nb[0]});
  NetId carry = nl.add_gate(GateType::kOr, "fs0_cout", {ops.a[0], nb[0]});
  for (std::size_t i = 1; i < width; ++i) {
    auto [s, c] = full_adder(nl, ops.a[i], nb[i], carry,
                             "fs" + std::to_string(i));
    sums[i] = s;
    carry = c;
  }
  mark_result(nl, sums);
  const NetId cout = nl.add_gate(GateType::kBuf, "cout", {carry});
  nl.mark_output(cout);
  nl.validate();
  return nl;
}

Netlist structural_multiplier(std::size_t width) {
  if (width == 0) throw std::invalid_argument("structural_multiplier: zero width");
  Netlist nl;
  const Operands ops = add_operand_inputs(nl, width);

  // Truncated array multiplier: partial product pp[i][j] = a[j] & b[i]
  // contributes to result bit i+j; bits >= width are dropped.  Rows are
  // accumulated with ripple adders.
  std::vector<NetId> acc(width, netlist::kNullNet);  // running sum bits
  for (std::size_t i = 0; i < width; ++i) {
    // Partial product row i, aligned at bit i.
    std::vector<NetId> row(width, netlist::kNullNet);
    for (std::size_t j = 0; i + j < width; ++j) {
      row[i + j] = nl.add_gate(
          GateType::kAnd, "pp" + std::to_string(i) + "_" + std::to_string(j),
          {ops.a[j], ops.b[i]});
    }
    if (i == 0) {
      acc = row;
      continue;
    }
    // acc += row (bits below i are unchanged: row has no bits there).
    NetId carry = netlist::kNullNet;
    for (std::size_t k = i; k < width; ++k) {
      const std::string tag = "m" + std::to_string(i) + "_" + std::to_string(k);
      if (row[k] == netlist::kNullNet) break;  // row exhausted
      if (acc[k] == netlist::kNullNet) {
        // Nothing accumulated yet at this bit (cannot happen for k>=i
        // after row 0, defensive).
        acc[k] = row[k];
        continue;
      }
      if (carry == netlist::kNullNet) {
        auto [s, c] = half_adder(nl, acc[k], row[k], tag);
        acc[k] = s;
        carry = c;
      } else {
        auto [s, c] = full_adder(nl, acc[k], row[k], carry, tag);
        acc[k] = s;
        carry = c;
      }
    }
    // The carry out of the truncated column chain is dropped (mod 2^n),
    // but must stay observable: fold it into nothing is not allowed, so
    // absorb it into an XOR with the top accumulated bit.  Functionally
    // the top bit of a mod-2^n product *does* receive this carry only
    // beyond the width, so dropping is correct; we keep the net alive
    // via a dedicated sink output later.
    if (carry != netlist::kNullNet) {
      acc.push_back(carry);  // parked; collected into the sink below
    }
  }

  std::vector<NetId> result(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(width));
  mark_result(nl, result);

  // Sink for the dropped carries so the netlist stays fully observable.
  if (acc.size() > width) {
    std::vector<NetId> extras(acc.begin() + static_cast<std::ptrdiff_t>(width),
                              acc.end());
    NetId sink = extras[0];
    for (std::size_t i = 1; i < extras.size(); ++i) {
      sink = nl.add_gate(GateType::kXor, "sink" + std::to_string(i),
                         {sink, extras[i]});
    }
    const NetId sink_out = nl.add_gate(GateType::kBuf, "carry_sink", {sink});
    nl.mark_output(sink_out);
  }
  nl.validate();
  return nl;
}

Netlist structural_lfsr(std::size_t width, const std::vector<std::size_t>& taps) {
  if (width == 0) throw std::invalid_argument("structural_lfsr: zero width");
  if (taps.empty()) throw std::invalid_argument("structural_lfsr: no taps");
  for (const std::size_t t : taps) {
    if (t >= width) throw std::invalid_argument("structural_lfsr: tap beyond width");
  }
  Netlist nl;
  const Operands ops = add_operand_inputs(nl, width);

  // feedback = XOR of tap bits of a.
  NetId feedback;
  if (taps.size() == 1) {
    feedback = nl.add_gate(GateType::kBuf, "fb", {ops.a[taps[0]]});
  } else {
    std::vector<NetId> tap_nets;
    tap_nets.reserve(taps.size());
    for (const std::size_t t : taps) tap_nets.push_back(ops.a[t]);
    feedback = nl.add_gate(GateType::kXor, "fb", std::move(tap_nets));
  }

  // y[0] = feedback ^ b[0]; y[i] = a[i-1] ^ b[i].
  std::vector<NetId> next(width);
  next[0] = nl.add_gate(GateType::kXor, "nx0", {feedback, ops.b[0]});
  for (std::size_t i = 1; i < width; ++i) {
    next[i] = nl.add_gate(GateType::kXor, "nx" + std::to_string(i),
                          {ops.a[i - 1], ops.b[i]});
  }
  mark_result(nl, next);
  nl.validate();
  return nl;
}

util::WideWord eval_structural(const netlist::CompiledCircuit& cc,
                               const util::WideWord& a,
                               const util::WideWord& b) {
  const std::size_t width = a.bits();
  if (b.bits() != width || cc.num_inputs() != 2 * width ||
      cc.num_outputs() < width) {
    throw std::invalid_argument("eval_structural: width mismatch");
  }
  util::WideWord packed(2 * width);
  for (std::size_t i = 0; i < width; ++i) {
    packed.set_bit(i, a.get_bit(i));
    packed.set_bit(width + i, b.get_bit(i));
  }
  const util::WideWord resp = sim::LogicSim(cc).output_response(packed);

  util::WideWord y(width);
  for (std::size_t i = 0; i < width; ++i) y.set_bit(i, resp.get_bit(i));
  return y;
}

std::size_t verify_structural_equivalence(const Tpg& behavioural,
                                          const netlist::CompiledCircuit& structural,
                                          std::size_t trials, util::Rng& rng) {
  const std::size_t width = behavioural.width();
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto state = util::WideWord::random(width, rng);
    const auto sigma =
        behavioural.legalize_sigma(util::WideWord::random(width, rng));
    const auto expect = behavioural.step(state, sigma);
    const auto got = eval_structural(structural, state, sigma);
    if (expect != got) ++mismatches;
  }
  return mismatches;
}

}  // namespace fbist::tpg
