#include "netlist/cone_encoder.h"

#include <algorithm>

#include "netlist/cone.h"

namespace fbist::netlist {

EncodedCones encode_cones(const Netlist& nl) {
  const std::size_t n = nl.num_nets();
  EncodedCones enc;
  enc.gates.resize(n);
  enc.outputs.resize(n);
  enc.output_slots.resize(n);
  enc.programs.resize(n);

  std::size_t max_fanin = 0;
  for (NetId id = 0; id < n; ++id) {
    max_fanin = std::max(max_fanin, nl.gate(id).fanin.size());
  }
  std::vector<Cone> cones;
  cones.reserve(n);
  for (NetId root = 0; root < n; ++root) {
    cones.push_back(fanout_cone(nl, root));
    enc.max_cone_gates = std::max(enc.max_cone_gates, cones.back().gates.size());
  }
  enc.narrow = n < (1u << 16) && enc.max_cone_gates + 2 < (1u << 16) &&
               max_fanin < (1u << 12);

  for (NetId root = 0; root < n; ++root) {
    const Cone& cone = cones[root];
    enc.gates[root] = cone.gates;
    // Slot rule: the root is 0, cone gate i is i + 1, and every net
    // outside the cone reads the sentinel one past the last gate.
    const auto slot_of = [&](NetId net) -> std::uint32_t {
      if (net == root) return 0;
      const auto it = std::lower_bound(cone.gates.begin(), cone.gates.end(), net);
      if (it == cone.gates.end() || *it != net) {
        return static_cast<std::uint32_t>(cone.gates.size() + 1);
      }
      return static_cast<std::uint32_t>(it - cone.gates.begin() + 1);
    };
    for (const std::size_t pos : cone.output_positions) {
      enc.outputs[root].push_back(static_cast<std::uint32_t>(pos));
      enc.output_slots[root].push_back(slot_of(nl.outputs()[pos]));
    }
    std::vector<std::uint32_t>& prog = enc.programs[root];
    for (const NetId g : cone.gates) {
      const Gate& gate = nl.gate(g);
      const auto type = static_cast<std::uint32_t>(gate.type);
      const auto k = static_cast<std::uint32_t>(gate.fanin.size());
      if (enc.narrow) {
        prog.push_back((static_cast<std::uint32_t>(g) << 16) | (k << 4) | type);
        // 16-bit slots two per word, the low half first.
        for (std::uint32_t j = 0; j < k; j += 2) {
          const std::uint32_t hi = j + 1 < k ? slot_of(gate.fanin[j + 1]) : 0;
          prog.push_back(slot_of(gate.fanin[j]) | (hi << 16));
        }
      } else {
        prog.push_back((k << 8) | type);
        prog.push_back(g);
        for (const NetId f : gate.fanin) prog.push_back(slot_of(f));
      }
    }
  }
  return enc;
}

}  // namespace fbist::netlist
