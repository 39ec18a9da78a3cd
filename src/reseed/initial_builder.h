// Initial Reseeding Builder.
//
// Implements Section 3.1 of the paper: starting from a complete
// deterministic ATPG test set ATPGTS = {p_0 ... p_{M-1}}, build one
// candidate triplet per pattern — delta = p_i, sigma chosen at random
// (legalized by the TPG), T fixed and equal for all triplets — then
// fault-simulate each triplet's test set TS_i to fill the Detection
// Matrix.  With T = 1 the union of the TS_i degenerates to ATPGTS
// itself, so the initial reseeding is complete by construction.
#pragma once

#include <cstddef>
#include <vector>

#include "cover/detection_matrix.h"
#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/fault_sim.h"
#include "sim/pattern.h"
#include "tpg/tpg.h"
#include "tpg/triplet.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace fbist::reseed {

class MatrixCache;

struct BuilderOptions {
  /// Evolution length T applied to every candidate triplet ("the value T
  /// is experimentally tuned and fixed equal for all the triplets"); at
  /// most cover::DetectionMatrix::kMaxCycles = 65535, the largest T whose
  /// earliest indices the matrix holds.
  std::size_t cycles_per_triplet = 64;
  /// Seed for the sigma draws.
  std::uint64_t seed = 7;
  /// Use one shared random sigma for all triplets (false: fresh draw per
  /// triplet).  The paper draws sigma randomly per triplet.
  bool shared_sigma = false;
};

/// The initial reseeding T plus its Detection Matrix.  Columns no
/// candidate detects stay in the matrix; the optimizer restricts the
/// covering problem to the coverable columns and reports the others
/// separately (they need a longer T or more seeds).
struct InitialReseeding {
  std::vector<tpg::Triplet> triplets;      // M candidates, one per ATPG pattern
  cover::DetectionMatrix matrix;           // M x |F|, earliest indices tracked
};

/// Builds the initial reseeding for `atpg_patterns` on `tpg` against the
/// fault list inside `fsim`.  With a `cache`, the detection matrix is
/// looked up under its content key first and stored after a build, so a
/// repeated campaign skips the fault simulator entirely.  Cached and
/// freshly built results are identical.  An armed `deadline` is polled
/// between packings (each packing is one bounded PPSFP walk); expiry
/// throws util::TimeoutError before any partial matrix can reach the
/// cache.  Any exception a packing throws (an expiry, an injected
/// builder.pack failure) reaches the caller the same way, through the
/// pool's parallel_for (campaign/scheduler.h).  Throws
/// std::invalid_argument, before any lookup or simulation, when
/// `opts.cycles_per_triplet` exceeds cover::DetectionMatrix::kMaxCycles.
InitialReseeding build_initial_reseeding(const sim::FaultSim& fsim,
                                         const tpg::Tpg& tpg,
                                         const sim::PatternSet& atpg_patterns,
                                         const BuilderOptions& opts = {},
                                         MatrixCache* cache = nullptr,
                                         const util::Deadline* deadline = nullptr);

/// The initial reseeding at evolution length `cycles` (0 means 1, as in
/// the builder), derived from `family`, a build at a T of at least
/// `cycles`: the same triplets with `cycles` replaced, and a cell set
/// iff its earliest detecting index is below `cycles`, keeping that
/// index.  A triplet's first `cycles` patterns are a prefix of its
/// longer run (delta is the ATPG pattern, sigma's draws never see T,
/// and rows are independent), so the result equals a fresh build at
/// `cycles` in triplets, bits and earliest indices.  Throws
/// std::invalid_argument when `cycles` exceeds a row's T or the matrix
/// carries no earliest indices.
InitialReseeding at_cycles(const InitialReseeding& family, std::size_t cycles);

}  // namespace fbist::reseed
