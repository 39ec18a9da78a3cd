// SAT-based ATPG: per-fault miter construction + CDCL solve.
//
// The complement to PODEM (podem.h).  PODEM is a structural
// branch-and-bound over primary-input assignments — fast on the easy
// mass of the fault list, but its backtrack limit turns the hard tail
// into *aborts*: faults that are neither detected nor proven redundant,
// silently deflating fault coverage.  SatEngine decides exactly that
// tail.  For one stuck-at fault it builds the classic good/faulty miter
// as a propositional formula and hands it to the embedded CDCL solver
// (solver.h):
//
//   * the good circuit is encoded once per SatEngine (Tseitin clauses
//     over the whole schedule, via cnf.h) straight into a solver image;
//     each fault's solve copy-assigns that image into the engine's one
//     scratch solver, which is exactly the state a fresh solver reaches
//     after the same emission — so results stay
//     order-independent and deterministic — and, the solver being flat
//     arrays, frees and allocates nothing once the scratch has held a
//     miter as large;
//   * the faulty circuit is only re-encoded over the fault's fanout
//     cone (cone_gates), with the fault site forced to its stuck value
//     and the good site forced to the opposite value (activation);
//   * each cone-reachable primary output contributes an XOR difference
//     variable; their disjunction asserts "some output differs".
//
// SAT      -> a fully specified test pattern (read off the PI model);
// UNSAT    -> a *redundancy certificate*: no input vector distinguishes
//             the faulty machine, so the fault is untestable and is
//             excluded from the fault universe;
// kAborted -> conflict budget exhausted; the fault stays aborted.
//
// The engine trusts the solver for UNSAT but not for SAT: callers
// (run_atpg) re-validate every produced pattern against sim::FaultSim
// before using it.  Sequential extension rides on CircuitCnf's
// timeframe hook — see cnf.h.
//
// Two miters, one builder.  The *structural* miter adds D-chain clauses
// (the "active clauses" of Larrabee, IEEE TCAD 1992, and Stephan et al.,
// IEEE TCAD 1996): a variable d_n for the site and every cone gate,
// meaning "n carries the fault effect", with d_n -> good_n != faulty_n,
// d_n -> OR(d over n's readers) off the primary outputs, and d_site.
// Setting d true along one sensitized path turns any test of the plain
// miter into a model of the structural one, so the two agree on UNSAT;
// the structural one gives the solver the propagation path that the
// plain one hides, and its redundancy proofs are much cheaper.
//   * proves_redundant() decides with the structural miter and never
//     reads its model;
//   * generate() solves the plain miter, whose models are the SAT
//     patterns of the test set.  They differ from the structural
//     miter's models, so the plain miter stays.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/cnf.h"
#include "atpg/solver.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "util/wideword.h"

namespace fbist::atpg {

struct SatEngineOptions {
  /// Conflict budget per fault; 0 = unlimited.  The default decides
  /// every registry-circuit fault with a wide margin while bounding
  /// pathological instances.
  std::uint64_t conflict_limit = 200000;
};

enum class SatStatus : std::uint8_t {
  kDetected,   // SAT — pattern holds a (fully specified) test vector
  kRedundant,  // UNSAT — certified untestable
  kAborted,    // conflict limit hit
};

struct SatResult {
  SatStatus status = SatStatus::kAborted;
  util::WideWord pattern;  // PI vector (valid when kDetected)
  util::WideWord care;     // all-ones when kDetected (model is total)
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
};

/// Per-circuit SAT ATPG engine.  Construction encodes and loads the
/// good circuit once; generate() and proves_redundant() copy that
/// solver image into the engine's scratch solver and build and solve
/// one miter per fault.  One engine serves one thread, as run_atpg
/// uses it.
class SatEngine {
 public:
  /// Borrows `cc`.  Throws std::invalid_argument when it was compiled
  /// without cone programs (the structure-only form): each miter reads
  /// its fault's cone.
  explicit SatEngine(const netlist::CompiledCircuit& cc,
                     SatEngineOptions opts = {});
  SatEngine(const netlist::CompiledCircuit&&, SatEngineOptions = {}) = delete;

  /// Decides one stuck-at fault with the plain miter.  Deterministic:
  /// identical circuit + fault always yields the identical result
  /// (including the pattern), whatever the engine answered before.
  SatResult generate(const fault::Fault& f);

  /// True iff the structural miter of `f` is UNSAT, i.e. `f` is
  /// redundant.  False for a testable fault and when the conflict limit
  /// runs out.
  bool proves_redundant(const fault::Fault& f);

  const SatEngineOptions& options() const { return opts_; }

 private:
  /// Copies the good-circuit image into scratch_, adds the miter of `f`
  /// (with D-chain clauses when `structural`) and solves it.  Dead-logic
  /// faults return kUnsat and leave scratch_ untouched.
  SolveStatus solve_miter(const fault::Fault& f, bool structural);

  const netlist::CompiledCircuit& cc_;
  SatEngineOptions opts_;
  Solver image_;    // good circuit loaded, nothing solved; net n <-> variable n
  Solver scratch_;  // the current miter: a copy of image_ plus its clauses

  // Miter scratch, kept across faults.  faulty_ maps a net to its
  // faulty-circuit variable, kShared off the current cone: solve_miter()
  // sets it over the site and its cone and restores exactly those
  // entries.  d_var_ maps a net to its D-chain variable; it is read only
  // over the site and its cone, after being set there, so it is never
  // restored.
  static constexpr SatVar kShared = static_cast<SatVar>(-1);
  std::vector<SatVar> faulty_;
  std::vector<SatVar> d_var_;
  std::vector<SatLit> clause_;  // literals of the clause being emitted
};

}  // namespace fbist::atpg
