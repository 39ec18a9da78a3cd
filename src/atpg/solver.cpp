#include "atpg/solver.h"

#include <algorithm>
#include <cassert>

namespace fbist::atpg {

namespace {

/// Three-valued literal evaluation: -1 unassigned, 0 false, 1 true.
inline int lit_value(const std::vector<std::int8_t>& assign, SatLit l) {
  const std::int8_t a = assign[l.var()];
  if (a < 0) return -1;
  return a ^ static_cast<int>(l.neg());
}

constexpr double kActivityRescale = 1e100;
constexpr double kActivityDecay = 0.95;

}  // namespace

Solver::Solver(SolverOptions opts) : opts_(opts) {}

SatVar Solver::new_var() {
  const SatVar v = static_cast<SatVar>(assign_.size());
  assign_.push_back(-1);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  polarity_.push_back(0);
  heap_pos_.push_back(kNoPos);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  return v;
}

void Solver::add_clause(const SatLit* lits, std::size_t n) {
  sorted_.assign(lits, lits + n);
  commit_clause();
}

void Solver::add_clause(SatLit head, const SatLit* tail, std::size_t n,
                        bool negate_tail) {
  sorted_.clear();
  sorted_.push_back(head);
  for (std::size_t i = 0; i < n; ++i) {
    sorted_.push_back(negate_tail ? ~tail[i] : tail[i]);
  }
  commit_clause();
}

void Solver::commit_clause() {
  assert(trail_lim_.empty() && "clauses may only be added at level 0");
  if (unsat_) return;

  // Level-0 simplification: sort + dedup, drop false literals, skip
  // satisfied or tautological clauses.
  std::vector<SatLit>& c = sorted_;
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  std::vector<SatLit>& kept = kept_;
  kept.clear();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i + 1 < c.size() && c[i].var() == c[i + 1].var()) return;  // tautology
    const int v = lit_value(assign_, c[i]);
    if (v == 1) return;  // already satisfied at level 0
    if (v == 0) continue;  // false at level 0: literal can never help
    kept.push_back(c[i]);
  }
  if (kept.empty()) {
    unsat_ = true;
    return;
  }
  if (kept.size() == 1) {
    if (!enqueue(kept[0], kNoReason)) unsat_ = true;
    return;
  }
  const std::uint32_t cref = store_clause(kept.data(), kept.size());
  watch(kept[0], cref);
  watch(kept[1], cref);
}

std::uint32_t Solver::store_clause(const SatLit* lits, std::size_t n) {
  SatLit header;
  header.code = static_cast<std::uint32_t>(n);
  pool_.push_back(header);
  const std::uint32_t cref = static_cast<std::uint32_t>(pool_.size());
  pool_.insert(pool_.end(), lits, lits + n);
  return cref;
}

void Solver::watch(SatLit l, std::uint32_t cref) {
  Watches& w = watches_[l.code];
  if (w.size == w.cap) grow_watches(w);
  watch_pool_[w.begin + w.size++] = cref;
}

void Solver::grow_watches(Watches& w) {
  const std::uint32_t end = static_cast<std::uint32_t>(watch_pool_.size());
  const std::uint32_t extra = std::max<std::uint32_t>(w.cap, 2);
  if (w.begin + w.cap == end) {
    watch_pool_.resize(end + extra);
  } else {
    watch_pool_.resize(end + w.cap + extra);
    std::copy_n(watch_pool_.begin() + w.begin, w.size, watch_pool_.begin() + end);
    w.begin = end;
  }
  w.cap += extra;
}

bool Solver::enqueue(SatLit l, std::uint32_t reason) {
  const int v = lit_value(assign_, l);
  if (v >= 0) return v == 1;
  assign_[l.var()] = l.neg() ? 0 : 1;
  level_[l.var()] = static_cast<std::uint32_t>(trail_lim_.size());
  reason_[l.var()] = reason;
  trail_.push_back(l);
  if (reason != kNoReason) ++stats_.propagations;
  return true;
}

std::uint32_t Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const SatLit p = trail_[qhead_++];  // p just became true
    const SatLit false_lit = ~p;
    Watches& ws = watches_[false_lit.code];
    const std::uint32_t n = ws.size;
    std::uint32_t i = 0, j = 0;
    while (i < n) {
      // Re-read per watch: moving a watch to another list may move the
      // arena (never this list, whose literal is false).
      std::uint32_t* const list = watch_pool_.data() + ws.begin;
      const std::uint32_t cref = list[i++];
      SatLit* lits = pool_.data() + cref;
      const std::uint32_t len = lits[-1].code;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      const SatLit first = lits[0];
      if (lit_value(assign_, first) == 1) {
        list[j++] = cref;  // satisfied — keep the watch
        continue;
      }
      bool moved = false;
      for (std::uint32_t k = 2; k < len; ++k) {
        if (lit_value(assign_, lits[k]) != 0) {
          std::swap(lits[1], lits[k]);
          watch(lits[1], cref);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      list[j++] = cref;  // clause stays watched on false_lit
      if (lit_value(assign_, first) == 0) {
        // Conflict: keep the remaining watchers, flush the queue.
        while (i < n) list[j++] = list[i++];
        ws.size = j;
        qhead_ = trail_.size();
        return cref;
      }
      enqueue(first, cref);
    }
    ws.size = j;
  }
  return kNoReason;
}

std::uint32_t Solver::analyze(std::uint32_t conflict,
                              std::vector<SatLit>& learned) {
  learned.clear();
  learned.push_back(SatLit());  // slot for the asserting literal
  const std::uint32_t current = static_cast<std::uint32_t>(trail_lim_.size());
  std::uint32_t path = 0;
  std::size_t index = trail_.size();
  SatLit p;
  bool p_defined = false;
  std::uint32_t confl = conflict;

  do {
    const SatLit* lits = pool_.data() + confl;
    const std::uint32_t len = lits[-1].code;
    for (std::uint32_t k = p_defined ? 1 : 0; k < len; ++k) {
      const SatLit q = lits[k];
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      bump_var(q.var());
      seen_[q.var()] = 1;
      if (level_[q.var()] >= current) {
        ++path;
      } else {
        learned.push_back(q);
      }
    }
    while (!seen_[trail_[--index].var()]) {
    }
    p = trail_[index];
    p_defined = true;
    confl = reason_[p.var()];
    seen_[p.var()] = 0;
    --path;
  } while (path > 0);
  learned[0] = ~p;

  std::uint32_t back_level = 0;
  if (learned.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < learned.size(); ++k) {
      if (level_[learned[k].var()] > level_[learned[max_i].var()]) max_i = k;
    }
    std::swap(learned[1], learned[max_i]);
    back_level = level_[learned[1].var()];
  }
  for (std::size_t k = 1; k < learned.size(); ++k) seen_[learned[k].var()] = 0;
  return back_level;
}

void Solver::backtrack(std::uint32_t target_level) {
  if (trail_lim_.size() <= target_level) return;
  const std::size_t keep = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i-- > keep;) {
    const SatVar v = trail_[i].var();
    polarity_[v] = assign_[v] == 1 ? 1 : 0;  // phase saving
    assign_[v] = -1;
    reason_[v] = kNoReason;
    if (heap_pos_[v] == kNoPos) heap_insert(v);
  }
  trail_.resize(keep);
  trail_lim_.resize(target_level);
  qhead_ = keep;
}

void Solver::bump_var(SatVar v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kActivityRescale) {
    for (double& a : activity_) a *= 1.0 / kActivityRescale;
    var_inc_ *= 1.0 / kActivityRescale;
  }
  if (heap_pos_[v] != kNoPos) heap_update(v);
}

void Solver::decay_activities() { var_inc_ *= 1.0 / kActivityDecay; }

bool Solver::heap_less(SatVar a, SatVar b) const {
  // Max-heap on activity; ties break to the lowest variable index so
  // search order (and thus models) is fully deterministic.
  if (activity_[a] != activity_[b]) return activity_[a] > activity_[b];
  return a < b;
}

void Solver::heap_insert(SatVar v) {
  heap_pos_[v] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_update(SatVar v) { heap_sift_up(heap_pos_[v]); }

void Solver::heap_sift_up(std::size_t i) {
  const SatVar v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const SatVar v = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

SatVar Solver::heap_pop() {
  ++stats_.heap_pops;
  const SatVar top = heap_[0];
  heap_pos_[top] = kNoPos;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

SatVar Solver::pick_branch_var() {
  while (!heap_.empty()) {
    const SatVar v = heap_pop();
    if (assign_[v] < 0) return v;
  }
  return static_cast<SatVar>(-1);
}

SolveStatus Solver::solve(const std::vector<SatLit>& assumptions) {
  if (unsat_) return SolveStatus::kUnsat;
  backtrack(0);
  qhead_ = 0;  // re-propagate level-0 units accumulated by add_clause

  // Rebuild the decision heap over all unassigned variables.
  heap_.clear();
  std::fill(heap_pos_.begin(), heap_pos_.end(), kNoPos);
  for (SatVar v = 0; v < assign_.size(); ++v) {
    if (assign_[v] < 0) heap_insert(v);
  }

  if (propagate() != kNoReason) {
    unsat_ = true;
    return SolveStatus::kUnsat;
  }

  std::uint64_t conflicts_total = 0;
  std::uint64_t conflicts_since_restart = 0;
  std::uint64_t restart_limit = 100;
  std::vector<SatLit>& learned = learned_;

  while (true) {
    const std::uint32_t confl = propagate();
    if (confl != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_total;
      ++conflicts_since_restart;
      if (trail_lim_.empty()) return SolveStatus::kUnsat;
      if (opts_.conflict_limit != 0 &&
          conflicts_total >= opts_.conflict_limit) {
        backtrack(0);
        return SolveStatus::kAborted;
      }
      const std::uint32_t back_level = analyze(confl, learned);
      backtrack(back_level);
      if (learned.size() == 1) {
        if (!enqueue(learned[0], kNoReason)) return SolveStatus::kUnsat;
      } else {
        const std::uint32_t cref = store_clause(learned.data(), learned.size());
        watch(learned[0], cref);
        watch(learned[1], cref);
        ++stats_.learned_clauses;
        enqueue(learned[0], cref);
      }
      decay_activities();
      continue;
    }

    if (conflicts_since_restart >= restart_limit && !trail_lim_.empty()) {
      ++stats_.restarts;
      conflicts_since_restart = 0;
      restart_limit += restart_limit / 2;
      backtrack(0);
      continue;
    }

    const std::size_t dl = trail_lim_.size();
    if (dl < assumptions.size()) {
      // Assumptions are forced first decisions, one per level, so a
      // backjump or restart re-asserts them in order.
      const SatLit a = assumptions[dl];
      const int v = lit_value(assign_, a);
      if (v == 0) return SolveStatus::kUnsat;  // contradicts the formula
      trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      if (v < 0) {
        ++stats_.decisions;
        enqueue(a, kNoReason);
      }
      continue;
    }

    const SatVar v = pick_branch_var();
    if (v == static_cast<SatVar>(-1)) return SolveStatus::kSat;
    ++stats_.decisions;
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(mk_lit(v, polarity_[v] == 0), kNoReason);
  }
}

}  // namespace fbist::atpg
