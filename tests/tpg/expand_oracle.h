// Per-pattern expansion oracle: the test-side reference for
// tpg::expand_triplet_into.
//
// The library writes a triplet run into a bit-sliced pattern set 64
// patterns at a time through a bit-matrix transpose
// (sim::PatternSet::write_tile).  This oracle shares none of that path:
// it steps the TPG once per pattern and appends each state one input
// bit at a time, so a wrong tile, lane mask or transpose cannot corrupt
// both sides of a comparison alike.
#pragma once

#include "sim/pattern.h"
#include "tpg/tpg.h"
#include "tpg/triplet.h"
#include "util/wideword.h"

namespace fbist::tpg {

/// The t.cycles patterns of `t` on `tpg` (sigma legalized first), from
/// repeated Tpg::step and per-bit sim::PatternSet::append.  `next`, when
/// given, receives the state after the last pattern: delta stepped
/// t.cycles times.
sim::PatternSet oracle_expand(const Tpg& tpg, const Triplet& t,
                              util::WideWord* next = nullptr);

}  // namespace fbist::tpg
