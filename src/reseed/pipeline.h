// End-to-end Functional-BIST reseeding pipeline for one circuit + TPG.
//
// Bundles the whole computation flow of the paper's Figure 1:
//   circuit -> collapsed fault list -> ATPG (TestGen substitute)
//           -> Initial Reseeding Builder -> Matrix Reducer -> exact solve
//           -> final reseeding solution.
//
// The pipeline object owns the per-circuit state (netlist, compiled
// circuit, fault list, fault simulator, ATPG test set) so that multiple
// TPGs / multiple T values can be evaluated without re-running ATPG.
// It is the one place in the library that compiles a netlist: init()
// builds the CompiledCircuit once, with cone programs, and collapsing,
// ATPG, PODEM, the SAT engine and the fault simulator that builds every
// candidate triplet's detection-matrix column all borrow it — the
// structure is never re-derived per candidate.  Because its engines
// hold references into its members, a Pipeline is neither copied nor
// moved; campaigns share it through PreparedCircuit.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "atpg/engine.h"
#include "circuits/registry.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "reseed/initial_builder.h"
#include "reseed/optimizer.h"
#include "sim/fault_sim.h"
#include "tpg/tpg.h"

namespace fbist::reseed {

class MatrixCache;

/// Every field here that can change a run's result is folded into a
/// campaign's checkpoint hash (campaign::spec_hash), so a directory
/// written under other options is rejected on resume or merge; a new
/// such field must join that hash.
struct PipelineOptions {
  atpg::AtpgOptions atpg;
  BuilderOptions builder;
  OptimizerOptions optimizer;
  /// Cross-process detection-matrix cache (reseed/matrix_cache.h)
  /// consulted by every build of this pipeline.  Null disables caching.
  std::shared_ptr<MatrixCache> matrix_cache;
};

/// Per-circuit context reusable across TPGs.
///
/// All run entry points are const: once constructed, a Pipeline is an
/// immutable "prepared circuit" — netlist, compiled form, collapsed
/// fault list and ATPG test set — safe to share across threads.  The
/// campaign layer prepares each circuit once (see prepare()) and fans
/// N runs out over the shared snapshot.
class Pipeline {
 public:
  /// Builds the context for a registry circuit (see circuits/registry.h).
  explicit Pipeline(const std::string& circuit_name, PipelineOptions opts = {});
  /// Builds the context for an arbitrary netlist.
  Pipeline(netlist::Netlist nl, std::string name, PipelineOptions opts = {});
  /// The fault simulator borrows the compiled circuit and fault list
  /// members, so neither copying nor (hence) moving is allowed.
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Shareable const handle: N campaign runs (TPG kinds x T values x
  /// solvers) reuse one compile + ATPG through it.
  static std::shared_ptr<const Pipeline> prepare(
      const std::string& circuit_name, PipelineOptions opts = {});
  static std::shared_ptr<const Pipeline> prepare(netlist::Netlist nl,
                                                 std::string name,
                                                 PipelineOptions opts = {});

  /// Runs the Initial Reseeding Builder for one TPG kind at evolution
  /// length `cycles` (0 keeps the options' T).  The builder seed mixes
  /// in the circuit name and TPG kind, never T, so a build at a larger T
  /// thresholds to this one exactly (reseed::at_cycles).  An armed
  /// `deadline` is polled between packings; expiry throws
  /// util::TimeoutError (the campaign runner turns it into a canonical
  /// timeout failure).
  InitialReseeding build(tpg::TpgKind kind, std::size_t cycles,
                         const util::Deadline* deadline = nullptr) const;

  /// Runs the optimizer on a built (or thresholded) initial reseeding
  /// with per-run optimizer options (campaigns cross solver choices
  /// without re-preparing the circuit).  An armed `deadline` is polled
  /// through the optimizer and exact solver.
  ReseedingSolution solve(const InitialReseeding& initial,
                          const OptimizerOptions& optimizer,
                          const util::Deadline* deadline = nullptr) const;

  /// build() + solve() for one TPG kind with the options' optimizer.
  /// Overrides the per-triplet evolution length when `cycles` != 0.
  ReseedingSolution run(tpg::TpgKind kind, std::size_t cycles = 0) const;
  /// Like run(), but with per-run optimizer options.
  ReseedingSolution run(tpg::TpgKind kind, std::size_t cycles,
                        const OptimizerOptions& optimizer) const;

  /// Like run(), but also returns the initial reseeding (for benches
  /// that inspect the matrix itself).
  std::pair<InitialReseeding, ReseedingSolution> run_detailed(
      tpg::TpgKind kind, std::size_t cycles = 0) const;

  const std::string& name() const { return name_; }
  const netlist::Netlist& circuit() const { return nl_; }
  const netlist::CompiledCircuit& compiled() const { return *compiled_; }
  const fault::FaultList& faults() const { return faults_; }
  const sim::FaultSim& fault_sim() const { return *fsim_; }
  const atpg::AtpgResult& atpg_result() const { return atpg_; }
  const sim::PatternSet& atpg_patterns() const { return atpg_.patterns; }
  const PipelineOptions& options() const { return opts_; }

 private:
  void init();

  std::string name_;
  PipelineOptions opts_;
  netlist::Netlist nl_;
  std::unique_ptr<const netlist::CompiledCircuit> compiled_;
  fault::FaultList faults_;
  std::unique_ptr<sim::FaultSim> fsim_;
  atpg::AtpgResult atpg_;
};

/// The shareable prepared-circuit handle campaigns pass around.
using PreparedCircuit = std::shared_ptr<const Pipeline>;

}  // namespace fbist::reseed
