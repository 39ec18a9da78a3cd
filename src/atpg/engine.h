// Deterministic ATPG driver — the TestGen substitute.
//
// Pipeline (standard industrial shape):
//   1. random-pattern phase: at most 64 blocks of 64 patterns, each
//      fault-simulated against the remaining faults with dropping; a
//      block keeps only the patterns that first detect some fault, and
//      the phase stops after 3 consecutive blocks that detect nothing
//      (both limits are fixed constants);
//   2. deterministic phase, per remaining fault in ascending id:
//      PODEM, X-fill, then the new pattern is fault-simulated against
//      all remaining faults (fault dropping).  With sat_escalate:
//        a. PODEM first tries with 20 backtracks;
//        b. a fault it does not settle goes to the SAT engine's
//           structural miter, which only decides whether it is
//           redundant;
//        c. a testable fault goes back to PODEM at its full budget;
//        d. if that aborts too, the plain miter's model is the pattern.
//      A search that ends within the first try ends the same way at the
//      full budget, and both miters agree on redundancy, so this gives
//      the patterns and verdicts of one full-budget PODEM try per fault
//      with its aborts settled by the plain miter;
//   3. reverse-order compaction: a pattern is kept iff it is the first
//      detector, scanning the pool from its end, of some detected fault.
//      One fault-simulation campaign over the reversed pool against the
//      detected faults yields every fault's first reverse detector.
//
// The driver keeps one fault state, a util::BitVector of the faults
// still without a verdict; a verdict is settled in one place.
//
// Output: a compacted complete test set plus the per-fault verdicts
// (detected / proven redundant / aborted).
#pragma once

#include <cstddef>
#include <vector>

#include "atpg/podem.h"
#include "atpg/sat_engine.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "sim/fault_sim.h"
#include "sim/pattern.h"
#include "util/rng.h"

namespace fbist::atpg {

struct AtpgOptions {
  PodemOptions podem;
  /// SAT escalation: a fault PODEM does not settle goes to
  /// atpg::SatEngine, which either certifies it redundant or (after a
  /// full-budget PODEM abort) produces a validated test pattern (see
  /// sat_engine.h).  On by default — PODEM stays the fast path and the
  /// source of every pattern it can find.
  bool sat_escalate = true;
  SatEngineOptions sat;
  std::uint64_t seed = 1;
};

enum class FaultVerdict : std::uint8_t {
  kDetected,
  kRedundant,   // proven untestable (PODEM or SAT certificate)
  kAborted,     // PODEM hit the backtrack limit (and SAT, if enabled,
                // hit its conflict limit), or the engine's pattern failed
                // fault-simulation validation
};

struct AtpgResult {
  sim::PatternSet patterns;               // final compacted test set
  std::vector<FaultVerdict> verdict;      // per fault id
  std::size_t random_patterns_used = 0;   // kept from the random phase
  std::size_t deterministic_patterns = 0; // produced by PODEM or SAT
  std::size_t redundant_faults = 0;
  std::size_t aborted_faults = 0;
  /// SAT-escalation outcomes (both zero when sat_escalate is off).
  /// sat_detected_faults counts PODEM-aborted faults the solver found a
  /// (FaultSim-validated) pattern for; sat_redundant_faults counts
  /// UNSAT redundancy certificates — every redundancy the solver
  /// certifies, including ones that PODEM would have proved with more
  /// than 20 backtracks.  Both subsets are already included in the
  /// verdict[] / redundant_faults tallies above.
  std::size_t sat_detected_faults = 0;
  std::size_t sat_redundant_faults = 0;

  /// Detected / (total - redundant), in percent.
  double testable_coverage_percent() const;
};

/// Runs the full ATPG flow for `faults` on `cc`, which the fault
/// simulator, PODEM and the SAT engine all borrow (reseed::Pipeline
/// passes its one compile).  Throws std::invalid_argument when `cc` was
/// compiled without cone programs.
AtpgResult run_atpg(const netlist::CompiledCircuit& cc,
                    const fault::FaultList& faults,
                    const AtpgOptions& opts = {});

}  // namespace fbist::atpg
