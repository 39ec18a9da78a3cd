#include "reseed/optimizer.h"

#include <algorithm>
#include <stdexcept>

#include "cover/greedy.h"

namespace fbist::reseed {

namespace {

/// Builds the covering sub-matrix restricted to coverable columns.
/// Returns the matrix plus the mapping residual-col -> original fault id.
std::pair<cover::DetectionMatrix, std::vector<std::size_t>> coverable_submatrix(
    const cover::DetectionMatrix& full) {
  const util::BitVector coverable = full.coverable();
  std::vector<std::size_t> col_map;
  col_map.reserve(coverable.count());
  coverable.for_each_set([&](std::size_t c) { col_map.push_back(c); });

  // Word-level column compaction: each row restricted to the coverable
  // columns in one gather pass instead of an O(C) per-bit probe loop.
  cover::DetectionMatrix sub(full.num_rows(), col_map.size());
  for (std::size_t r = 0; r < full.num_rows(); ++r) {
    sub.set_row(r, full.row(r).gather(coverable));
  }
  return {std::move(sub), std::move(col_map)};
}

}  // namespace

ReseedingSolution optimize(const InitialReseeding& initial,
                           const OptimizerOptions& opts,
                           const util::Deadline* deadline) {
  ReseedingSolution sol;
  const cover::DetectionMatrix& full = initial.matrix;
  sol.initial_rows = full.num_rows();
  sol.initial_cols = full.num_cols();

  // Cooperative deadline: polled between stages here, and every few
  // thousand nodes inside solve_exact (the only open-ended stage).
  cover::ExactOptions exact = opts.exact;
  if (deadline != nullptr) exact.deadline = deadline;
  if (deadline != nullptr) deadline->check("optimizer");

  auto [work, col_map] = coverable_submatrix(full);
  sol.faults_targeted = work.num_cols();
  sol.faults_uncoverable = full.num_cols() - work.num_cols();
  if (work.num_cols() == 0) return sol;  // nothing to cover

  std::vector<std::size_t> chosen_rows;       // final selection (row ids)
  std::vector<bool> chosen_is_necessary;

  if (opts.skip_reduction) {
    sol.residual_rows = work.num_rows();
    sol.residual_cols = work.num_cols();
    const cover::CoverSolution cs = opts.solver == SolverChoice::kExact
                                        ? cover::solve_exact(work, exact)
                                        : cover::solve_greedy(work);
    if (!cs.feasible) throw std::runtime_error("optimize: solver infeasible");
    for (const std::size_t r : cs.rows) {
      chosen_rows.push_back(r);
      chosen_is_necessary.push_back(false);
    }
    sol.solver_count = cs.rows.size();
    sol.solver_nodes = cs.nodes;
    sol.solver_optimal = cs.proven_optimal;
  } else {
    const cover::ReductionResult red = cover::reduce(work, opts.reduce);
    if (deadline != nullptr) deadline->check("optimizer");
    sol.reduction_iterations = red.iterations;
    sol.residual_rows = red.residual_rows.size();
    sol.residual_cols = red.residual_cols.size();
    sol.necessary_count = red.necessary_rows.size();

    for (const std::size_t r : red.necessary_rows) {
      chosen_rows.push_back(r);
      chosen_is_necessary.push_back(true);
    }
    if (!red.residual_empty()) {
      const cover::CoverSolution cs =
          opts.solver == SolverChoice::kExact
              ? cover::solve_exact(red.residual, exact)
              : cover::solve_greedy(red.residual);
      if (!cs.feasible) throw std::runtime_error("optimize: solver infeasible");
      for (const std::size_t rr : cs.rows) {
        chosen_rows.push_back(red.residual_rows[rr]);
        chosen_is_necessary.push_back(false);
      }
      sol.solver_count = cs.rows.size();
      sol.solver_nodes = cs.nodes;
      sol.solver_optimal = cs.proven_optimal;
    } else {
      sol.solver_optimal = true;  // nothing left to decide
    }
  }

  // --- Assign each targeted fault to its earliest-detecting selected
  // triplet and trim trailing patterns -----------------------------------
  const bool have_earliest = full.has_earliest();
  std::vector<std::size_t> trimmed_cycles(chosen_rows.size(), 0);
  std::vector<std::size_t> assigned(chosen_rows.size(), 0);

  // One word-level pass per *selected* row over its compacted
  // sub-matrix bits, instead of probing every (column, selected row)
  // pair bit by bit: each row contributes only its set bits, visited
  // via the packed-word iterator.  Rows go in chosen_rows order and a
  // later row wins only on a strictly earlier detection, which is
  // exactly the tie-break of the per-column scan this replaces.
  const std::size_t kUnassigned = chosen_rows.size();
  std::vector<std::size_t> best(work.num_cols(), kUnassigned);
  std::vector<std::uint32_t> best_idx(work.num_cols(), sim::kNotDetected);
  for (std::size_t i = 0; i < chosen_rows.size(); ++i) {
    const std::size_t row = chosen_rows[i];
    work.row(row).for_each_set([&](std::size_t c) {
      const std::uint32_t idx =
          have_earliest ? full.earliest(row, col_map[c]) : 0;
      if (best[c] == kUnassigned || idx < best_idx[c]) {
        best[c] = i;
        best_idx[c] = idx;
      }
    });
  }
  util::BitVector covered_check(work.num_cols());
  for (std::size_t c = 0; c < work.num_cols(); ++c) {
    if (best[c] == kUnassigned) continue;  // should not happen (feasible)
    covered_check.set(c);
    ++assigned[best[c]];
    if (opts.trim_lengths && have_earliest) {
      trimmed_cycles[best[c]] = std::max(
          trimmed_cycles[best[c]], static_cast<std::size_t>(best_idx[c]) + 1);
    }
  }
  sol.faults_covered = covered_check.count();

  for (std::size_t i = 0; i < chosen_rows.size(); ++i) {
    SelectedTriplet st;
    st.triplet_index = chosen_rows[i];
    st.triplet = initial.triplets[chosen_rows[i]];
    st.necessary = chosen_is_necessary[i];
    st.assigned_faults = assigned[i];
    if (opts.trim_lengths && have_earliest) {
      // A selected triplet with zero assigned faults can still be kept
      // at length 1 (it must cover something — the solvers return
      // irredundant covers — but its faults may all have been assigned
      // to earlier-detecting triplets).
      st.triplet.cycles = std::max<std::size_t>(trimmed_cycles[i], 1);
    }
    sol.test_length += st.triplet.cycles;
    sol.selected.push_back(std::move(st));
  }

  std::sort(sol.selected.begin(), sol.selected.end(),
            [](const SelectedTriplet& a, const SelectedTriplet& b) {
              return a.triplet_index < b.triplet_index;
            });
  return sol;
}

bool solution_is_minimal(const InitialReseeding& initial,
                         const ReseedingSolution& sol) {
  const cover::DetectionMatrix& full = initial.matrix;
  auto [work, col_map] = coverable_submatrix(full);
  (void)col_map;
  std::vector<std::size_t> rows;
  rows.reserve(sol.selected.size());
  for (const auto& st : sol.selected) rows.push_back(st.triplet_index);
  return cover::covers_all(work, rows) && cover::is_irredundant(work, rows);
}

}  // namespace fbist::reseed
