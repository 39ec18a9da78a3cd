// Gate-level (structural) implementations of the TPG datapaths.
//
// The behavioural TPGs in accumulator.h/lfsr.h model the *function* the
// reseeding flow needs.  In a real SoC the TPG is mission logic — an
// actual adder, subtracter or multiplier.  This module builds those
// units as gate-level netlists:
//
//   * ripple-carry adder           (a + b)        mod 2^n
//   * two's-complement subtracter  (a - b)        mod 2^n
//   * truncated array multiplier   (a * b)        mod 2^n
//   * LFSR next-state logic        (shift + taps XOR + injection)
//
// Uses:
//   1. cross-verification of the behavioural step functions against a
//      gate-accurate model (tests/tpg/structural_test.cpp),
//   2. the paper's own scenario end-to-end: one functional module (the
//      accumulator) generating patterns *for another functional module
//      as UUT* — see examples/test_the_tester.cpp, where the adder TPG
//      tests the gate-level multiplier.
//
// Interface convention of every generated netlist:
//   inputs : a0..a{n-1}, b0..b{n-1}     (operand bit i = PI index i / n+i)
//   outputs: y0..y{n-1}                 (result bit i = PO index i)
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "tpg/tpg.h"
#include "util/rng.h"
#include "util/wideword.h"

namespace fbist::tpg {

/// n-bit ripple-carry adder netlist (carry-out discarded: mod 2^n).
netlist::Netlist structural_adder(std::size_t width);

/// n-bit subtracter a - b = a + ~b + 1 (borrow-out discarded).
netlist::Netlist structural_subtracter(std::size_t width);

/// n-bit truncated array multiplier (low n product bits).
/// Gate count grows quadratically; intended for datapath widths
/// (8..32 bits), not for the 600-bit scan widths.
netlist::Netlist structural_multiplier(std::size_t width);

/// LFSR next-state logic: y = (a << 1 | feedback) ^ b, where feedback is
/// the XOR of the tap bits of a.  Operand a = current state, b = the
/// injected sigma word.
netlist::Netlist structural_lfsr(std::size_t width,
                                 const std::vector<std::size_t>& taps);

/// Evaluates a compiled structural datapath on two operands: packs a
/// and b onto the PIs, simulates, and reads result bit i from PO
/// position i.  Widths must match the netlist convention above.  The
/// structure-only compile is enough.
util::WideWord eval_structural(const netlist::CompiledCircuit& cc,
                               const util::WideWord& a,
                               const util::WideWord& b);

/// Cross-checks a behavioural TPG against a compiled structural netlist
/// on `trials` random (state, sigma) pairs; returns the number of
/// mismatches (0 = equivalent on the sample).  Compiles nothing: the
/// caller compiles the netlist once for all trials.
std::size_t verify_structural_equivalence(const Tpg& behavioural,
                                          const netlist::CompiledCircuit& structural,
                                          std::size_t trials, util::Rng& rng);

}  // namespace fbist::tpg
