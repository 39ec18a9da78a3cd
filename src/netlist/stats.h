// Circuit statistics for reports and the DESIGN/EXPERIMENTS tables.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "netlist/netlist.h"

namespace fbist::netlist {

class CompiledCircuit;

struct CircuitStats {
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
  std::size_t num_gates = 0;
  std::size_t num_nets = 0;
  std::size_t depth = 0;
  double avg_fanin = 0.0;
  double avg_fanout = 0.0;
  std::size_t max_fanout = 0;
  /// Gate count per GateType (indexed by the enum's underlying value).
  std::array<std::size_t, 9> per_type{};
};

/// Counts read off the compiled arrays; the structure-only form is
/// enough.
CircuitStats compute_stats(const CompiledCircuit& cc);

/// Multi-line human-readable rendering.
std::string stats_to_string(const CircuitStats& s, const std::string& name = {});

}  // namespace fbist::netlist
