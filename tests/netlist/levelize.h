// Levelization and topological utilities — reference implementation.
//
// Netlist construction already enforces a topological net numbering
// (fanin ids < gate id); levelization assigns each net its logic depth.
//
// The library reads levels, depth and output reachability from
// netlist::CompiledCircuit (compiled once per circuit).  This module is
// a test oracle: the independent per-gate walk the compiler is pinned
// to in tests/netlist/compiled_test.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.h"

namespace fbist::netlist {

/// Per-net logic level: inputs are level 0; a gate's level is
/// 1 + max(level of fanins).
std::vector<std::size_t> levelize(const Netlist& nl);

/// Maximum logic level (circuit depth).
std::size_t depth(const Netlist& nl);

/// Nets in topological order (which, by construction, is 0..N-1).
/// Provided for readability at call sites that need explicit ordering.
std::vector<NetId> topological_order(const Netlist& nl);

/// True if `net` lies on some path to a primary output.
std::vector<bool> reaches_output(const Netlist& nl);

}  // namespace fbist::netlist
