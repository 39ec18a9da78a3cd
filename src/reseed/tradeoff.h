// Reseedings-vs-test-length trade-off sweep (Figure 2 of the paper).
//
// Increasing the per-triplet evolution length T makes every candidate
// test set larger, so fewer triplets suffice to cover all faults — at
// the price of a longer global test sequence.  The sweep builds the
// detection matrix once, at the largest T, derives each T's matrix by
// thresholding that build (reseed::at_cycles, identical to a fresh build
// at that T), reduces and solves it, and reports one (num_triplets,
// test_length) point per T.
#pragma once

#include <cstddef>
#include <vector>

#include "reseed/initial_builder.h"
#include "reseed/optimizer.h"

namespace fbist::reseed {

struct TradeoffPoint {
  std::size_t cycles_per_triplet = 0;  // T used for candidates
  std::size_t num_triplets = 0;        // |N|
  std::size_t test_length = 0;         // trimmed global length
  std::size_t faults_targeted = 0;
  std::size_t faults_covered = 0;
};

struct TradeoffOptions {
  /// T values to evaluate (ascending recommended).
  std::vector<std::size_t> cycle_values = {16, 32, 64, 128, 256, 512};
  BuilderOptions builder;     // cycles_per_triplet: the largest T
  OptimizerOptions optimizer;
};

/// Runs the sweep for one (circuit fault-sim, TPG, ATPG test set).
std::vector<TradeoffPoint> tradeoff_sweep(const sim::FaultSim& fsim,
                                          const tpg::Tpg& tpg,
                                          const sim::PatternSet& atpg_patterns,
                                          const TradeoffOptions& opts = {});

}  // namespace fbist::reseed
