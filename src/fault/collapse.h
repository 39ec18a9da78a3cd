// Structural equivalence fault collapsing.
//
// Classic rules (McCluskey-style dominance is deliberately *not* applied
// — only equivalence, so the collapsed list detects exactly the same
// test sets as the full list):
//
//   * On a fanout-free net feeding a BUF/NOT, the input fault is
//     equivalent to the corresponding output fault.
//   * For AND/NAND: stuck-at-0 on any fanin-free input is equivalent to
//     output stuck-at-(0 for AND / 1 for NAND) — represented by keeping
//     only the output fault; dually for OR/NOR with stuck-at-1.
//
// Since this library models faults on nets (stems), input-branch faults
// on fanout stems are already represented by the stem fault; the rules
// above remove the per-gate redundancy that remains.
#pragma once

#include <vector>

#include "fault/fault.h"

namespace fbist::netlist {
class CompiledCircuit;
}

namespace fbist::fault {

/// Returns the collapsed fault vector of `cc` (order: ascending net id,
/// s-a-0 before s-a-1).  Fanout adjacency, output positions and
/// reachability come from the compiled CSR arrays, so the structure-only
/// form is enough.
std::vector<Fault> collapse_faults(const netlist::CompiledCircuit& cc);

}  // namespace fbist::fault
