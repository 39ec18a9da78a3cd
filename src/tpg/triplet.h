// Reseeding triplets and their expansion into test sets.
//
// A triplet (delta, sigma, T) fully determines one TPG run: the state
// register is loaded with delta, the input operand register with sigma,
// and the TPG evolves for T clocks.  The test set TS of the triplet is
// the sequence of T state values observed at the TPG outputs (the seed
// itself is the first applied pattern, matching the paper's convention
// that with T=1 the test set equals the ATPG pattern used as delta).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/pattern.h"
#include "tpg/tpg.h"
#include "util/wideword.h"

namespace fbist::tpg {

struct Triplet {
  util::WideWord delta;  // initial state
  util::WideWord sigma;  // held input operand
  std::size_t cycles = 0;  // T: number of patterns produced

  std::string to_string() const;
};

/// Expands `t` on `tpg` into its test set (t.cycles patterns, width =
/// tpg.width()).  sigma is legalized by the TPG first.
sim::PatternSet expand_triplet(const Tpg& tpg, const Triplet& t);

/// Expands only pattern indices [0, prefix) — used after test-length
/// trimming where a solution keeps a prefix of each triplet's run.
sim::PatternSet expand_triplet_prefix(const Tpg& tpg, const Triplet& t,
                                      std::size_t prefix);

/// Expands `t` directly into patterns [base, base + t.cycles) of `ps`
/// (already sized; width = tpg.width()) — the lane-packed form used by
/// sim::FaultSim::run_packed, with no intermediate PatternSet.  The run
/// may start and end at any lane; it is written one 64-pattern tile at a
/// time (sim::PatternSet::write_tile), and patterns outside the range
/// keep their bits.  The state advances in place (Tpg::advance), so on
/// the built-in TPGs a pattern costs no allocation.  Returns the TPG
/// state that follows the run (delta stepped t.cycles times under the
/// legalized sigma): where a run that continues this one starts.
util::WideWord expand_triplet_into(const Tpg& tpg, const Triplet& t,
                                   sim::PatternSet& ps, std::size_t base);

/// Concatenation of the test sets of all triplets, in order.
sim::PatternSet expand_all(const Tpg& tpg, const std::vector<Triplet>& ts);

}  // namespace fbist::tpg
