// Single stuck-at fault model.
//
// The paper's target fault list F is the collapsed single stuck-at list
// of the combinational UUT.  We model faults on *nets* (equivalently:
// gate output stuck-at faults plus primary-input faults).  Gate-input
// branch faults are folded into their structural equivalence classes by
// the collapser (fault/collapse.h), which mirrors the usual practice of
// commercial ATPG fault lists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace fbist::netlist {
class CompiledCircuit;
}

namespace fbist::fault {

/// One single stuck-at fault: `net` permanently at value `stuck_value`.
struct Fault {
  netlist::NetId net = netlist::kNullNet;
  bool stuck_value = false;  // false: stuck-at-0, true: stuck-at-1

  bool operator==(const Fault& o) const {
    return net == o.net && stuck_value == o.stuck_value;
  }
};

/// Printable form, e.g. "G11/0".  Takes the netlist, which holds the
/// net names; everything else in this layer reads a compiled circuit.
std::string fault_name(const netlist::Netlist& nl, const Fault& f);

/// The indexed fault universe of one circuit.
///
/// FaultList owns a vector of faults; fault *ids* (positions) are the
/// column indices of the Detection Matrix throughout the library.
class FaultList {
 public:
  /// Empty list — a placeholder until one of the factories assigns.
  FaultList() = default;

  /// Full (uncollapsed) list: both polarities on every net that reaches
  /// a primary output (faults on dead logic are undetectable by
  /// construction and excluded up front).  Either compiled form will
  /// do: the list reads only reachability.
  static FaultList full(const netlist::CompiledCircuit& cc);

  /// Structurally collapsed list (see fault/collapse.h).
  static FaultList collapsed(const netlist::CompiledCircuit& cc);

  std::size_t size() const { return faults_.size(); }
  const Fault& operator[](std::size_t i) const { return faults_[i]; }
  const std::vector<Fault>& faults() const { return faults_; }

  /// Id of a fault, or SIZE_MAX when absent.
  std::size_t find(const Fault& f) const;

  /// Removes the faults whose ids are flagged in `drop` (used to strip
  /// ATPG-proven-redundant faults from the target list).
  FaultList without(const std::vector<bool>& drop) const;

 private:
  explicit FaultList(std::vector<Fault> faults) : faults_(std::move(faults)) {}
  std::vector<Fault> faults_;
};

}  // namespace fbist::fault
