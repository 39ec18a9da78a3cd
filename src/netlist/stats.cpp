#include "netlist/stats.h"

#include <algorithm>
#include <sstream>

#include "netlist/compiled.h"

namespace fbist::netlist {

CircuitStats compute_stats(const CompiledCircuit& cc) {
  CircuitStats s;
  s.num_inputs = cc.num_inputs();
  s.num_outputs = cc.num_outputs();
  s.num_gates = cc.num_gates();
  s.num_nets = cc.num_nets();
  s.depth = cc.depth();

  std::size_t fanin_total = 0;
  std::size_t fo_total = 0;
  for (NetId id = 0; id < cc.num_nets(); ++id) {
    s.per_type[static_cast<std::size_t>(cc.type(id))]++;
    fanin_total += cc.fanin(id).size();
    fo_total += cc.fanout(id).size();
    s.max_fanout = std::max(s.max_fanout, cc.fanout(id).size());
  }
  s.avg_fanin = s.num_gates == 0 ? 0.0
                                 : static_cast<double>(fanin_total) /
                                       static_cast<double>(s.num_gates);
  s.avg_fanout = s.num_nets == 0 ? 0.0
                                 : static_cast<double>(fo_total) /
                                       static_cast<double>(s.num_nets);
  return s;
}

std::string stats_to_string(const CircuitStats& s, const std::string& name) {
  std::ostringstream ss;
  if (!name.empty()) ss << name << ":\n";
  ss << "  PI=" << s.num_inputs << " PO=" << s.num_outputs
     << " gates=" << s.num_gates << " nets=" << s.num_nets
     << " depth=" << s.depth << "\n";
  ss << "  avg fanin=" << s.avg_fanin << " avg fanout=" << s.avg_fanout
     << " max fanout=" << s.max_fanout << "\n";
  ss << "  per-type:";
  for (std::size_t t = 0; t < s.per_type.size(); ++t) {
    if (s.per_type[t] == 0) continue;
    ss << ' ' << gate_type_name(static_cast<GateType>(t)) << '=' << s.per_type[t];
  }
  ss << '\n';
  return ss.str();
}

}  // namespace fbist::netlist
