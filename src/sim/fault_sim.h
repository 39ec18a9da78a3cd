// Parallel-pattern single-fault-propagation (PPSFP) fault simulation.
//
// A campaign computes good values once, then for each live fault
// re-evaluates only the fault's fanout cone with the fault site forced,
// comparing cone primary outputs against the good response.  Detection
// bits and the *earliest detecting pattern index* per fault are
// accumulated — the latter drives the paper's per-triplet test-length
// trimming.
//
// Every entry point is one campaign of run_packed, the one driver, over
// a lane-packed pattern set (sim::LanePacking) with an optional
// util::BitVector seek mask per row: run and run_subset pass it a
// single row.  A campaign runs one cone walk, compiled at two widths: a
// one-block campaign walks one 64-pattern block per cone visit, and a
// longer one kChunkBlocks (16, sim/pattern.h) blocks per visit over
// block-interleaved good values, from block 0 on, until no row still
// seeks the site's faults.  Good values come from the one schedule
// evaluator (sim/gate_eval.h), one pass per chunk at the walk's width.
// With seek masks, the union of the live rows' masks is formed once per
// campaign, and a site none of whose faults is in it costs one bit test
// per fault before any per-row scan.  Detection bits are assembled from
// the earliest indices one 64-fault word at a time.
//
// The walk streams the precompiled cone programs of a
// netlist::CompiledCircuit (cone-local slot numbering, flat fanin
// references, reachable-PO positions) and skips every gate none of
// whose fanins differs from good.  Sites are always distributed over
// the shared pool via util::parallel_for_workers, with per-worker
// scratch; the pool runs the loop serially on one worker, below its
// cutoff or when saturated, and results never depend on the worker
// count.  Two campaign-level optimizations apply on top:
//
//  * site pairing: sa0 and sa1 on the same net activate on disjoint
//    pattern lanes, so one walk with the site complemented per lane
//    simulates both faults exactly — dual-polarity nets cost one walk;
//  * lane-masked activation: a walk complements the site only on the
//    lanes of rows that still seek the fault, so a row that has found
//    it stops producing effects nobody reads.
//
// The walk is compiled once for the baseline ISA and runs no AVX code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "fault/fault.h"
#include "netlist/compiled.h"
#include "sim/logic_sim.h"
#include "sim/pattern.h"
#include "util/bitvector.h"

namespace fbist::sim {

/// Sentinel for "fault never detected".
constexpr std::uint32_t kNotDetected = std::numeric_limits<std::uint32_t>::max();

/// Result of a fault-simulation campaign over one pattern set.
struct FaultSimResult {
  /// detected.get(f) == fault f was detected by at least one pattern.
  util::BitVector detected;
  /// earliest[f]: index of the first detecting pattern, or kNotDetected.
  std::vector<std::uint32_t> earliest;

  std::size_t num_detected() const { return detected.count(); }
  double coverage_percent(std::size_t total_faults) const {
    return total_faults == 0
               ? 100.0
               : 100.0 * static_cast<double>(detected.count()) /
                     static_cast<double>(total_faults);
  }
};

/// Fault simulator bound to one compiled circuit and fault list, both
/// borrowed: the caller's compile serves every campaign (and, in
/// reseed::Pipeline, ATPG and PODEM too).
class FaultSim {
 public:
  /// Throws std::invalid_argument when `cc` was compiled without cone
  /// programs (the structure-only form), which the walk reads.
  FaultSim(const netlist::CompiledCircuit& cc, const fault::FaultList& faults);
  FaultSim(const netlist::CompiledCircuit&&, const fault::FaultList&) = delete;

  /// Simulates all patterns against all faults.  A detected fault is
  /// dropped from the campaign's later blocks; its earliest index is
  /// exact, because blocks are processed in pattern order and within a
  /// block the lowest set lane is taken.
  FaultSimResult run(const PatternSet& patterns) const;

  /// Simulates patterns against the faults set in `seek` (size = fault
  /// count); no other fault is reported detected.  Used by the ATPG's
  /// fault-dropping loop and compaction.
  FaultSimResult run_subset(const PatternSet& patterns,
                            const util::BitVector& seek) const;

  /// The one campaign driver behind every entry point.  Simulates many
  /// *independent* pattern sequences ("rows", e.g. one per reseeding
  /// candidate triplet, or one stage segment of each) laid out side by
  /// side in the lanes of one pre-packed set as
  /// `packing` describes (sim::pack_rows): good values are computed once
  /// per chunk of blocks and each fault's cone is walked once per chunk
  /// (one block, for a one-block set) for every row in it, not once per
  /// row.  Callers expand rows straight into the packed set
  /// (tpg::expand_triplet_into).  Lane ranges must be disjoint, a row of
  /// length <= 64 must not straddle a block boundary, and packed lanes
  /// outside every row are ignored.
  ///
  /// `seek` restricts the faults each row looks for: nullptr means every
  /// row seeks every fault, otherwise (*seek)[i] (size = fault count)
  /// flags the faults of packing.rows[i].  A site is walked while some
  /// row still seeks one of its faults and has not yet detected it, and
  /// a walk flips the site only in such rows' lanes.
  ///
  /// Returns one result per packing.rows entry, in that order, equal to
  /// run_subset() on that row alone with its seek mask — detection bits
  /// *and* row-local earliest indices.  Dropping is tracked per row: a
  /// fault detected by one row keeps simulating in every other row's
  /// lanes that seek it.
  std::vector<FaultSimResult> run_packed(
      const PatternSet& packed, const LanePacking& packing,
      const std::vector<util::BitVector>* seek = nullptr) const;

  const fault::FaultList& faults() const { return faults_; }
  const netlist::CompiledCircuit& compiled() const { return cc_; }

 private:
  /// Faults sharing one injection site: fid[s] is the id of the
  /// stuck-at-s fault on `net`, or SIZE_MAX.
  struct Site {
    netlist::NetId net;
    std::size_t fid[2];
  };

  const netlist::CompiledCircuit& cc_;
  const fault::FaultList& faults_;
  std::vector<Site> sites_;
};

}  // namespace fbist::sim
