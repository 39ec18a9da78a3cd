#include "fault/fault.h"

#include "fault/collapse.h"
#include "netlist/compiled.h"

namespace fbist::fault {

std::string fault_name(const netlist::Netlist& nl, const Fault& f) {
  return nl.gate(f.net).name + (f.stuck_value ? "/1" : "/0");
}

FaultList FaultList::full(const netlist::CompiledCircuit& cc) {
  std::vector<Fault> faults;
  faults.reserve(cc.num_nets() * 2);
  for (netlist::NetId n = 0; n < cc.num_nets(); ++n) {
    if (!cc.reaches_output(n)) continue;
    faults.push_back(Fault{n, false});
    faults.push_back(Fault{n, true});
  }
  return FaultList(std::move(faults));
}

FaultList FaultList::collapsed(const netlist::CompiledCircuit& cc) {
  return FaultList(collapse_faults(cc));
}

std::size_t FaultList::find(const Fault& f) const {
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (faults_[i] == f) return i;
  }
  return static_cast<std::size_t>(-1);
}

FaultList FaultList::without(const std::vector<bool>& drop) const {
  std::vector<Fault> kept;
  kept.reserve(faults_.size());
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (i >= drop.size() || !drop[i]) kept.push_back(faults_[i]);
  }
  return FaultList(std::move(kept));
}

}  // namespace fbist::fault
