// Per-side ternary gate fold: the test-side reference for
// atpg::eval_gate5.
//
// The library evaluates both sides of a five-valued signal at once on
// its two-rail byte (atpg/values.h).  This oracle shares none of that:
// it folds each side separately over the ternary tables below, so a
// wrong rail select, swap or XOR fold cannot corrupt both sides of a
// comparison alike.
#pragma once

#include <cstddef>

#include "atpg/values.h"

namespace fbist::atpg {

Tern tern_and(Tern a, Tern b);
Tern tern_or(Tern a, Tern b);
Tern tern_xor(Tern a, Tern b);

/// Evaluates a gate over Val5 fanins one side at a time.
Val5 fold_gate5(netlist::GateType type, const Val5* fanin, std::size_t n);

}  // namespace fbist::atpg
