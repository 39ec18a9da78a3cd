#include "fault/collapse.h"

#include <array>

#include "netlist/compiled.h"

namespace fbist::fault {

using netlist::CompiledCircuit;
using netlist::GateType;
using netlist::NetId;

std::vector<Fault> collapse_faults(const CompiledCircuit& cc) {
  const std::size_t num_nets = cc.num_nets();

  // keep[net][polarity]: the fault survives collapsing.  Faults on dead
  // logic (no path to a primary output) are undetectable by
  // construction and dropped up front.
  std::vector<std::array<bool, 2>> keep(num_nets);
  for (NetId n = 0; n < num_nets; ++n) {
    const bool reach = cc.reaches_output(n);
    keep[n] = {reach, reach};
  }

  // A net fault is collapsible into its (single) reader when the net is
  // fanout-free, not a primary output, and the reader's function makes
  // the faults equivalent.
  for (NetId n = 0; n < num_nets; ++n) {
    if (!cc.reaches_output(n)) continue;
    const netlist::Span<NetId> fanout = cc.fanout(n);
    if (fanout.size() != 1) continue;
    if (cc.output_index(n) != static_cast<std::size_t>(-1)) continue;
    const NetId reader = fanout[0];
    if (!cc.reaches_output(reader)) continue;
    switch (cc.type(reader)) {
      case GateType::kBuf:
        // in/0 == out/0, in/1 == out/1 — drop both input faults.
        keep[n] = {false, false};
        break;
      case GateType::kNot:
        // in/0 == out/1, in/1 == out/0 — drop both input faults.
        keep[n] = {false, false};
        break;
      case GateType::kAnd:
        // in s-a-0 == out s-a-0 (controlling value collapses).
        keep[n][0] = false;
        break;
      case GateType::kNand:
        // in s-a-0 == out s-a-1.
        keep[n][0] = false;
        break;
      case GateType::kOr:
        // in s-a-1 == out s-a-1.
        keep[n][1] = false;
        break;
      case GateType::kNor:
        // in s-a-1 == out s-a-0.
        keep[n][1] = false;
        break;
      default:
        break;  // XOR/XNOR: no structural equivalence
    }
  }

  std::vector<Fault> out;
  for (NetId n = 0; n < num_nets; ++n) {
    if (keep[n][0]) out.push_back(Fault{n, false});
    if (keep[n][1]) out.push_back(Fault{n, true});
  }
  return out;
}

}  // namespace fbist::fault
