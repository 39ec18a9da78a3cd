// Embedded CDCL SAT solver — no external dependency.
//
// A deliberately small conflict-driven clause-learning solver in the
// MiniSat lineage: two-watched-literal propagation, first-UIP conflict
// analysis with learned clauses, exponential-decay variable activity
// (heap-ordered decisions), phase saving, and geometric restarts.  It
// exists to answer one question class — "is this stuck-at fault
// testable?" — on circuit-shaped formulas, where instances are small
// but plentiful, so the design optimizes for construction cost and
// determinism over raw solving horsepower:
//
//  * fully deterministic: identical formulas yield identical models,
//    decision counts and conflict counts on every run (ties break on
//    the lowest variable index);
//  * bounded: a conflict limit turns "too hard" into an explicit
//    kAborted instead of an unbounded search (PODEM's backtrack-limit
//    discipline, transplanted);
//  * incremental-ish: the good circuit is emitted once straight into a
//    solver (cnf.h), that solver is copied per fault, then per-fault
//    clauses are added on top (the engine's miter layer).  Every member
//    is a flat array of values and clause-pool offsets, so the default
//    copy is exact, and a copy into a solver that already held a larger
//    miter frees and allocates nothing: it is a few block copies.
//
// Assumptions are supported as forced first decisions — the CNF
// property suite unit-assumes the primary-input literals and checks
// the propagated model against the logic simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace fbist::atpg {

/// SAT variable index (0-based).
using SatVar = std::uint32_t;

/// Literal: a variable or its negation, encoded as var << 1 | neg.
struct SatLit {
  std::uint32_t code = 0;

  SatLit() = default;
  SatLit(SatVar v, bool neg) : code((v << 1) | (neg ? 1u : 0u)) {}

  SatVar var() const { return code >> 1; }
  bool neg() const { return (code & 1u) != 0; }
  SatLit operator~() const {
    SatLit l;
    l.code = code ^ 1u;
    return l;
  }
  bool operator==(const SatLit& o) const { return code == o.code; }
  bool operator!=(const SatLit& o) const { return code != o.code; }
  bool operator<(const SatLit& o) const { return code < o.code; }
};

/// Positive literal of `v` (negated when `neg`).
inline SatLit mk_lit(SatVar v, bool neg = false) { return SatLit(v, neg); }

/// Outcome of one solve() call.
enum class SolveStatus : std::uint8_t {
  kSat,      // model available via Solver::value()
  kUnsat,    // formula (under the assumptions) is unsatisfiable
  kAborted,  // conflict limit hit — undecided
};

struct SolverOptions {
  /// Conflict budget per solve() call; 0 = unlimited.
  std::uint64_t conflict_limit = 0;
};

struct SolverStats {
  std::uint64_t decisions = 0;
  /// Variables popped off the decision heap, assigned ones included.
  std::uint64_t heap_pops = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
};

/// One solver instance: add variables and clauses, solve, read the
/// model.
class Solver {
 public:
  explicit Solver(SolverOptions opts = {});

  /// Allocates a fresh variable.
  SatVar new_var();
  /// Adds one clause (disjunction of `n` literals).  Level-0
  /// simplification only: false literals are dropped,
  /// satisfied/tautological clauses are skipped.  An empty (all-false)
  /// clause marks the instance trivially unsat.
  void add_clause(const SatLit* lits, std::size_t n);
  void add_clause(std::initializer_list<SatLit> lits) {
    add_clause(lits.begin(), lits.size());
  }
  /// Adds head | tail[0] | ... | tail[n-1], with every tail literal
  /// negated when `negate_tail`: a Tseitin gate's long clause without a
  /// buffer of the caller's.
  void add_clause(SatLit head, const SatLit* tail, std::size_t n, bool negate_tail);
  /// Unit clause: force `l` true.
  void add_unit(SatLit l) { add_clause(&l, 1); }

  /// Solves under optional assumptions (forced first decisions, in
  /// order).  Resets the search state; clauses persist across calls.
  SolveStatus solve(const std::vector<SatLit>& assumptions = {});

  /// Model value of `v` after a kSat solve.
  bool value(SatVar v) const { return assign_[v] == 1; }

  std::size_t num_vars() const { return assign_.size(); }
  const SolverStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNoReason = static_cast<std::uint32_t>(-1);

  /// One literal's watch list: clause references at
  /// watch_pool_[begin, begin + size), room up to begin + cap.
  struct Watches {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  /// Simplifies the clause in sorted_ at level 0 and stores it.
  void commit_clause();
  /// Appends a clause to the pool; returns its reference.
  std::uint32_t store_clause(const SatLit* lits, std::size_t n);
  /// Appends `cref` to `l`'s watch list.
  void watch(SatLit l, std::uint32_t cref);
  /// Makes room for one more watch in `w` (may move the arena).
  void grow_watches(Watches& w);
  bool enqueue(SatLit l, std::uint32_t reason);
  /// Propagates the trail to fixpoint; returns a conflicting clause
  /// reference or kNoReason.
  std::uint32_t propagate();
  /// First-UIP analysis of `conflict`; fills `learned` (asserting
  /// literal first) and returns the backjump level.
  std::uint32_t analyze(std::uint32_t conflict, std::vector<SatLit>& learned);
  void backtrack(std::uint32_t level);
  void bump_var(SatVar v);
  void decay_activities();
  SatVar pick_branch_var();

  // Decision-order heap (max-activity, ties to the lowest index).
  void heap_insert(SatVar v);
  void heap_update(SatVar v);
  SatVar heap_pop();
  bool heap_less(SatVar a, SatVar b) const;
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);

  SolverOptions opts_;
  SolverStats stats_;

  // Clause storage: one flat pool holding, per clause, a header whose
  // code is the clause length, then its literals.  A clause reference
  // (cref) is the pool offset of its first literal; watch lists and
  // reasons hold crefs.  Watched literals are the first two of each
  // clause.
  std::vector<SatLit> pool_;
  // Watch lists, per literal code, as ranges of one arena.  A list that
  // outgrows its room moves to the arena's end (or extends in place
  // when it is already last), leaving a hole.
  std::vector<Watches> watches_;
  std::vector<std::uint32_t> watch_pool_;

  std::vector<std::int8_t> assign_;     // per var: -1 unset, 0 false, 1 true
  std::vector<std::uint32_t> level_;    // per var
  std::vector<std::uint32_t> reason_;   // per var: cref or kNoReason
  std::vector<SatLit> trail_;
  std::vector<std::uint32_t> trail_lim_;  // trail size at each decision level
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<std::uint8_t> polarity_;  // saved phase, 1 = last true
  std::vector<std::uint32_t> heap_pos_;  // per var: heap index or kNoPos
  std::vector<SatVar> heap_;
  static constexpr std::uint32_t kNoPos = static_cast<std::uint32_t>(-1);

  std::vector<std::uint8_t> seen_;  // analyze() scratch
  std::vector<SatLit> sorted_;      // add_clause() scratch: sorted input
  std::vector<SatLit> kept_;        // add_clause() scratch: simplified
  std::vector<SatLit> learned_;     // solve() scratch: the learned clause
  bool unsat_ = false;              // empty clause added
};

}  // namespace fbist::atpg
