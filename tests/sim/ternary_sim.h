// Ternary (0/1/X) logic simulation — a test oracle.
//
// Validates *partially specified* patterns — PODEM cubes before X-fill.
// A cube detects a fault robustly iff the ternary simulation of the
// cube (unassigned inputs = X) yields a definite, differing value on
// some output of the good vs faulty circuit; such a cube detects the
// fault under **every** X-fill (tests/sim/ternary_sim_test.cpp checks
// exactly that for PODEM's cubes).
//
// The evaluator walks the flat topological schedule of a
// netlist::CompiledCircuit — the same compiled form LogicSim streams —
// instead of the per-gate heap walk of the seed implementation.  The
// TernarySim class borrows the caller's compiled circuit (the
// structure-only form is enough) so repeated cube queries against one
// circuit compile nothing; the free functions remain as the historical
// one-shot entry points (pinned by tests/sim/ternary_sim_test.cpp) and
// compile per call.
//
// Encoding: per-net TernaryValue; X propagates through the standard
// three-valued gate algebra.
#pragma once

#include <vector>

#include "fault/fault.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "util/wideword.h"

namespace fbist::sim {

/// Per-net ternary value.
enum class TernaryValue : std::uint8_t { k0, k1, kX };

/// A partially specified test pattern (a PODEM cube before X-fill).
struct TestCube {
  util::WideWord pattern;  // values on care bits; 0 elsewhere
  util::WideWord care;     // 1 = specified
};

/// Ternary evaluator bound to one circuit's compiled schedule.
class TernarySim {
 public:
  /// Borrows `cc` — e.g. the circuit a LogicSim or a reseed::Pipeline
  /// already reads.
  explicit TernarySim(const netlist::CompiledCircuit& cc) : cc_(cc) {}
  TernarySim(const netlist::CompiledCircuit&&) = delete;

  /// Simulates the good circuit under a cube (unspecified inputs = X).
  /// Returns one TernaryValue per net.
  std::vector<TernaryValue> simulate(const TestCube& cube) const;

  /// Like simulate but with `fault` injected (the fault net is forced
  /// to its stuck value — a *known* value in the faulty machine).
  std::vector<TernaryValue> simulate_faulty(const TestCube& cube,
                                            const fault::Fault& fault) const;

  /// True iff the cube detects the fault under every completion of its
  /// X bits: some primary output is definite in both machines and
  /// differs.
  bool robustly_detects(const TestCube& cube,
                        const fault::Fault& fault) const;

  const netlist::CompiledCircuit& compiled() const { return cc_; }

 private:
  std::vector<TernaryValue> simulate_impl(const TestCube& cube,
                                          const fault::Fault* fault) const;

  const netlist::CompiledCircuit& cc_;
};

/// One-shot wrappers (compile per call; prefer TernarySim for repeated
/// queries on one circuit).
std::vector<TernaryValue> ternary_simulate(const netlist::Netlist& nl,
                                           const TestCube& cube);

std::vector<TernaryValue> ternary_simulate_faulty(const netlist::Netlist& nl,
                                                  const TestCube& cube,
                                                  const fault::Fault& fault);

bool cube_robustly_detects(const netlist::Netlist& nl,
                           const TestCube& cube,
                           const fault::Fault& fault);

}  // namespace fbist::sim
