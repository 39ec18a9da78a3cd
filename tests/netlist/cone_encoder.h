// Cone-program encoder — reference implementation.
//
// netlist::CompiledCircuit stores, per net, the primary outputs its
// fanout cone reaches with their cone-local slots, and the cone's
// evaluation program (encodings: netlist/compiled.h), off which it reads
// the cone's gates.  This module rebuilds all of it the plain way, one
// root at a time from fanout_cone() (cone.h) and the slot rule — slot 0
// is the root, slot i+1 is cone gate i, one sentinel slot past the last
// gate — so the compiler's arrays can be pinned word for word
// (tests/netlist/compiled_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace fbist::netlist {

/// Every net's cone data, indexed by root net.
struct EncodedCones {
  std::vector<std::vector<NetId>> gates;
  std::vector<std::vector<std::uint32_t>> outputs;       // positions
  std::vector<std::vector<std::uint32_t>> output_slots;  // parallel
  std::vector<std::vector<std::uint32_t>> programs;
  std::size_t max_cone_gates = 0;
  bool narrow = false;
};

/// Encodes the cones of every net of `nl`, choosing the narrow
/// encoding from the whole-circuit limits exactly as compiled.h states.
EncodedCones encode_cones(const Netlist& nl);

}  // namespace fbist::netlist
