// MISR — multiple-input signature register (response compaction).
//
// The paper concentrates on the stimulus side of Functional BIST; a
// deployed scheme also needs the response side: UUT outputs are folded
// into a signature register every cycle and only the final signature is
// compared against a fault-free ("golden") value.  This module provides
// that substrate so the examples/CLI can emit a complete BIST plan
// (triplets + golden signatures) and so aliasing — a faulty response
// stream colliding with the golden signature — can be quantified.
//
// Structure: a w-bit Fibonacci LFSR whose state is XORed with the w-bit
// UUT response each clock:
//     state <- (state << 1 | feedback(state)) XOR response
// With a zero seed the map from response streams to signatures is
// GF(2)-linear, which the tests exploit.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/fault.h"
#include "netlist/compiled.h"
#include "sim/pattern.h"
#include "util/wideword.h"

namespace fbist::bist {

class Misr {
 public:
  /// `width` = number of UUT primary outputs.  Default taps mirror
  /// tpg::LfsrTpg.
  explicit Misr(std::size_t width, std::vector<std::size_t> taps = {});

  std::size_t width() const { return width_; }
  const std::vector<std::size_t>& taps() const { return taps_; }

  /// One clock: folds `response` into `state`.  Responses narrower than
  /// the register are zero-extended, so a register wider than the UUT's
  /// PO vector can be used to push the aliasing probability down to
  /// ~2^-width.
  util::WideWord step(const util::WideWord& state,
                      const util::WideWord& response) const;

  /// Signature of a response stream from a zero-seeded register.
  util::WideWord signature(const std::vector<util::WideWord>& responses) const;

 private:
  std::size_t width_;
  std::vector<std::size_t> taps_;
};

/// Fault-free output responses of `cc` to every pattern, in order.
/// These and the functions below borrow the circuit for the call; the
/// structure-only form is enough.
std::vector<util::WideWord> golden_responses(const netlist::CompiledCircuit& cc,
                                             const sim::PatternSet& patterns);

/// Golden signature of a pattern set: zero-seeded MISR over the
/// fault-free responses.
util::WideWord golden_signature(const netlist::CompiledCircuit& cc,
                                const sim::PatternSet& patterns,
                                const Misr& misr);

/// Aliasing measurement: for each fault id listed in `fault_ids`,
/// simulates the faulty circuit over `patterns` (the schedule evaluated
/// one pattern at a time, the fault net forced to its stuck value after
/// its gate), compacts the faulty response stream and compares against
/// the golden signature.  Returns the ids of *aliased* faults — detected
/// at the outputs but invisible in the signature.  (Theory: aliasing
/// probability ~ 2^-width for a well-formed MISR.)
std::vector<std::size_t> aliased_faults(const netlist::CompiledCircuit& cc,
                                        const fault::FaultList& faults,
                                        const std::vector<std::size_t>& fault_ids,
                                        const sim::PatternSet& patterns,
                                        const Misr& misr);

}  // namespace fbist::bist
