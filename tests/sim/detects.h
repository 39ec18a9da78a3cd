// Single-pattern detection probe for tests, built on
// sim::FaultSim::run_subset: one campaign of one pattern that seeks one
// fault.
#pragma once

#include <cstddef>

#include "sim/fault_sim.h"
#include "sim/pattern.h"
#include "util/bitvector.h"
#include "util/wideword.h"

namespace fbist::sim {

/// True iff `pattern` detects fault `fault_id` of `fsim`'s fault list.
inline bool detects(const FaultSim& fsim, const util::WideWord& pattern,
                    std::size_t fault_id) {
  PatternSet ps(fsim.compiled().num_inputs(), 0);
  ps.append(pattern);
  util::BitVector seek(fsim.faults().size());
  seek.set(fault_id);
  return fsim.run_subset(ps, seek).detected.get(fault_id);
}

}  // namespace fbist::sim
