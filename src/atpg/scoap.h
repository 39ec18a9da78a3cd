// SCOAP testability analysis (Goldstein's controllability/observability
// measures).
//
// For every net:
//   CC0(n) / CC1(n): combinational 0-/1-controllability — a proxy for
//     the number of PI assignments needed to set n to 0/1 (PIs cost 1).
//   CO(n): combinational observability — a proxy for the effort to
//     propagate n's value to a primary output (POs cost 0).
//
// Uses in this library:
//   * PODEM's backtrace tie-breaking (cheapest fanin first),
//   * random-resistance reporting: faults with large CC·CO products are
//     the ones the paper's "not random testable by 10k patterns"
//     circuit selection is about,
//   * the testability report in the CLI (`fbist info`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "netlist/compiled.h"

namespace fbist::atpg {

/// Saturating cost type (avoids overflow on reconvergent deep logic).
using ScoapCost = std::uint32_t;
constexpr ScoapCost kScoapInf = 1u << 30;

struct ScoapAnalysis {
  std::vector<ScoapCost> cc0;  // per net
  std::vector<ScoapCost> cc1;  // per net
  std::vector<ScoapCost> co;   // per net

  /// Detection-difficulty proxy of a stuck-at fault: controllability of
  /// the opposing value + observability of the site.
  ScoapCost fault_difficulty(const fault::Fault& f) const {
    const ScoapCost ctrl = f.stuck_value ? cc0[f.net] : cc1[f.net];
    const ScoapCost obs = co[f.net];
    return ctrl >= kScoapInf || obs >= kScoapInf ? kScoapInf : ctrl + obs;
  }
};

/// Computes all three measures over a compiled circuit (forward and
/// backward passes over the flat CSR arrays; the structure-only form is
/// enough).
ScoapAnalysis compute_scoap(const netlist::CompiledCircuit& cc);

/// Fault ids of `faults` sorted hardest-first by fault_difficulty —
/// useful for ordering deterministic ATPG (hard faults first maximises
/// incidental detection of easy ones).
std::vector<std::size_t> hardest_first(const ScoapAnalysis& scoap,
                                       const fault::FaultList& faults);

/// One-line summary (distribution of difficulties) for reports.
std::string scoap_summary(const ScoapAnalysis& s);

}  // namespace fbist::atpg
