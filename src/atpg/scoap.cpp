#include "atpg/scoap.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace fbist::atpg {

using netlist::CompiledCircuit;
using netlist::GateType;
using netlist::NetId;

namespace {

ScoapCost sat_add(ScoapCost a, ScoapCost b) {
  const std::uint64_t s = static_cast<std::uint64_t>(a) + b;
  return s >= kScoapInf ? kScoapInf : static_cast<ScoapCost>(s);
}

}  // namespace

ScoapAnalysis compute_scoap(const CompiledCircuit& cc) {
  const std::size_t n = cc.num_nets();
  ScoapAnalysis s;
  s.cc0.assign(n, kScoapInf);
  s.cc1.assign(n, kScoapInf);
  s.co.assign(n, kScoapInf);

  // --- Controllability: forward pass in topological order --------------
  for (NetId id = 0; id < n; ++id) {
    const auto fin = cc.fanin(id);
    switch (cc.type(id)) {
      case GateType::kInput:
        s.cc0[id] = s.cc1[id] = 1;
        break;
      case GateType::kBuf:
        s.cc0[id] = sat_add(s.cc0[fin[0]], 1);
        s.cc1[id] = sat_add(s.cc1[fin[0]], 1);
        break;
      case GateType::kNot:
        s.cc0[id] = sat_add(s.cc1[fin[0]], 1);
        s.cc1[id] = sat_add(s.cc0[fin[0]], 1);
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        // Output 1 needs all fanins 1; output 0 needs the cheapest 0.
        ScoapCost all1 = 1, min0 = kScoapInf;
        for (const NetId f : fin) {
          all1 = sat_add(all1, s.cc1[f]);
          min0 = std::min(min0, s.cc0[f]);
        }
        const ScoapCost out0 = sat_add(min0, 1);
        if (cc.type(id) == GateType::kAnd) {
          s.cc0[id] = out0;
          s.cc1[id] = all1;
        } else {
          s.cc1[id] = out0;
          s.cc0[id] = all1;
        }
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        ScoapCost all0 = 1, min1 = kScoapInf;
        for (const NetId f : fin) {
          all0 = sat_add(all0, s.cc0[f]);
          min1 = std::min(min1, s.cc1[f]);
        }
        const ScoapCost out1 = sat_add(min1, 1);
        if (cc.type(id) == GateType::kOr) {
          s.cc1[id] = out1;
          s.cc0[id] = all0;
        } else {
          s.cc0[id] = out1;
          s.cc1[id] = all0;
        }
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Exact parity enumeration is exponential in fanin; the
        // standard 2-input recurrence applied left-to-right:
        // cc0(a^b) = min(cc0a+cc0b, cc1a+cc1b)+1,
        // cc1(a^b) = min(cc0a+cc1b, cc1a+cc0b)+1.
        ScoapCost c0 = s.cc0[fin[0]];
        ScoapCost c1 = s.cc1[fin[0]];
        for (std::size_t i = 1; i < fin.size(); ++i) {
          const ScoapCost b0 = s.cc0[fin[i]];
          const ScoapCost b1 = s.cc1[fin[i]];
          const ScoapCost n0 =
              sat_add(std::min(sat_add(c0, b0), sat_add(c1, b1)), 1);
          const ScoapCost n1 =
              sat_add(std::min(sat_add(c0, b1), sat_add(c1, b0)), 1);
          c0 = n0;
          c1 = n1;
        }
        if (cc.type(id) == GateType::kXor) {
          s.cc0[id] = c0;
          s.cc1[id] = c1;
        } else {
          s.cc0[id] = c1;
          s.cc1[id] = c0;
        }
        break;
      }
    }
  }

  // --- Observability: backward pass -------------------------------------
  for (const NetId o : cc.outputs()) s.co[o] = 0;
  for (NetId id = static_cast<NetId>(n); id-- > 0;) {
    // Propagate from each reader gate to this net (fanout branch
    // observability = min over readers), via the CSR fanout slice.
    for (const NetId r : cc.fanout(id)) {
      if (s.co[r] >= kScoapInf) continue;
      ScoapCost side_cost = 0;
      switch (cc.type(r)) {
        case GateType::kBuf:
        case GateType::kNot:
          side_cost = 0;
          break;
        case GateType::kAnd:
        case GateType::kNand:
          // All *other* fanins at non-controlling 1.
          for (const NetId f : cc.fanin(r)) {
            if (f != id) side_cost = sat_add(side_cost, s.cc1[f]);
          }
          break;
        case GateType::kOr:
        case GateType::kNor:
          for (const NetId f : cc.fanin(r)) {
            if (f != id) side_cost = sat_add(side_cost, s.cc0[f]);
          }
          break;
        case GateType::kXor:
        case GateType::kXnor:
          // Any definite value on the others; take the cheaper side.
          for (const NetId f : cc.fanin(r)) {
            if (f != id) side_cost = sat_add(side_cost, std::min(s.cc0[f], s.cc1[f]));
          }
          break;
        case GateType::kInput:
          continue;  // impossible as a reader
      }
      const ScoapCost via = sat_add(sat_add(s.co[r], side_cost), 1);
      s.co[id] = std::min(s.co[id], via);
    }
  }
  return s;
}

std::vector<std::size_t> hardest_first(const ScoapAnalysis& scoap,
                                       const fault::FaultList& faults) {
  std::vector<std::size_t> order(faults.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scoap.fault_difficulty(faults[a]) >
                            scoap.fault_difficulty(faults[b]);
                   });
  return order;
}

std::string scoap_summary(const ScoapAnalysis& s) {
  const std::size_t num_nets = s.co.size();
  ScoapCost max_cc = 0, max_co = 0;
  double sum_cc = 0, sum_co = 0;
  std::size_t counted = 0;
  for (NetId id = 0; id < num_nets; ++id) {
    const ScoapCost cc = std::max(s.cc0[id], s.cc1[id]);
    if (cc >= kScoapInf || s.co[id] >= kScoapInf) continue;
    max_cc = std::max(max_cc, cc);
    max_co = std::max(max_co, s.co[id]);
    sum_cc += cc;
    sum_co += s.co[id];
    ++counted;
  }
  std::ostringstream ss;
  ss << "SCOAP: max CC=" << max_cc << " max CO=" << max_co;
  if (counted > 0) {
    ss << " avg CC=" << sum_cc / static_cast<double>(counted)
       << " avg CO=" << sum_co / static_cast<double>(counted);
  }
  ss << " (" << counted << "/" << num_nets << " nets observable)";
  return ss.str();
}

}  // namespace fbist::atpg
