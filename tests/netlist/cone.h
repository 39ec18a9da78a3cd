// Fanout-cone extraction — reference implementation.
//
// The fault simulator evaluates only the transitive fanout cone of the
// fault site for each injected fault, which is what makes parallel-
// pattern single-fault propagation affordable on thousands of faults.
//
// The hot paths (sim::FaultSim, atpg::Podem) no longer call these: they
// walk the precompiled CSR cone slices of netlist::CompiledCircuit.
// This module is a test oracle: the independent reference that the
// compiler is pinned to (tests/netlist/compiled_test.cpp) and that the
// seed-path simulators in sim/reference_sim.h use.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.h"

namespace fbist::netlist {

/// The transitive fanout cone of one net.
struct Cone {
  /// Gates in the cone (excluding the root net itself), topologically
  /// ordered (ascending NetId == evaluation order).
  std::vector<NetId> gates;
  /// Primary outputs reachable from the root (subset of nl.outputs()),
  /// as positions into nl.outputs().
  std::vector<std::size_t> output_positions;
};

/// Computes the fanout cone of `root`.
Cone fanout_cone(const Netlist& nl, NetId root);

/// Precomputed cones for every net.  Memory ~ sum of cone sizes; for the
/// benchmark-scale circuits this stays in the tens of MB.
class ConeIndex {
 public:
  explicit ConeIndex(const Netlist& nl);
  const Cone& cone(NetId net) const { return cones_[net]; }
  /// Mean cone size in gates (diagnostic).
  double mean_size() const;

 private:
  std::vector<Cone> cones_;
};

}  // namespace fbist::netlist
