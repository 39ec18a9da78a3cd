#include "cover/reduce.h"

#include <stdexcept>

namespace fbist::cover {

ReductionResult reduce(const DetectionMatrix& m, const ReduceOptions& opts) {
  const std::size_t R = m.num_rows();
  const std::size_t C = m.num_cols();

  // Working copies of rows, masked progressively as columns die.
  std::vector<util::BitVector> rows(R);
  for (std::size_t r = 0; r < R; ++r) rows[r] = m.row(r);

  util::BitVector col_alive(C, true);
  std::vector<bool> row_alive(R, true);

  ReductionResult result;

  // cover_count[c]: number of alive rows covering column c.
  std::vector<std::size_t> cover_count(C, 0);
  for (std::size_t r = 0; r < R; ++r) {
    rows[r].for_each_set([&](std::size_t c) { ++cover_count[c]; });
  }
  for (std::size_t c = 0; c < C; ++c) {
    if (cover_count[c] == 0) {
      throw std::invalid_argument("reduce: uncoverable column " + std::to_string(c));
    }
  }

  auto kill_row = [&](std::size_t r) {
    row_alive[r] = false;
    rows[r].for_each_set([&](std::size_t c) {
      if (col_alive.get(c)) --cover_count[c];
    });
  };
  auto kill_col = [&](std::size_t c) { col_alive.reset(c); };

  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;

    // --- Essentiality ---------------------------------------------------
    if (opts.use_essentiality) {
      for (std::size_t c = col_alive.find_first(); c < C;
           c = col_alive.find_next(c + 1)) {
        if (cover_count[c] != 1) continue;
        // Find the unique alive row covering c.
        std::size_t owner = R;
        for (std::size_t r = 0; r < R; ++r) {
          if (row_alive[r] && rows[r].get(c)) {
            owner = r;
            break;
          }
        }
        if (owner == R) continue;  // defensive; cover_count said 1
        result.necessary_rows.push_back(owner);
        // Remove the row and every alive column it covers.
        std::vector<std::size_t> killed_cols;
        rows[owner].for_each_set([&](std::size_t cc) {
          if (col_alive.get(cc)) killed_cols.push_back(cc);
        });
        kill_row(owner);
        for (const std::size_t cc : killed_cols) kill_col(cc);
        changed = true;
      }
    }

    // --- Row dominance ---------------------------------------------------
    if (opts.use_row_dominance) {
      // Compare alive rows restricted to alive columns.
      std::vector<std::size_t> alive_list;
      for (std::size_t r = 0; r < R; ++r) {
        if (row_alive[r]) alive_list.push_back(r);
      }
      std::vector<util::BitVector> masked(alive_list.size());
      std::vector<std::size_t> pop(alive_list.size());
      for (std::size_t i = 0; i < alive_list.size(); ++i) {
        masked[i] = rows[alive_list[i]];
        masked[i] &= col_alive;
        pop[i] = masked[i].count();
      }
      for (std::size_t i = 0; i < alive_list.size(); ++i) {
        const std::size_t ri = alive_list[i];
        if (!row_alive[ri]) continue;
        if (pop[i] == 0) {
          // Covers nothing alive: trivially dominated (by any row).
          result.dominated_rows.push_back(ri);
          kill_row(ri);
          changed = true;
          continue;
        }
        for (std::size_t k = 0; k < alive_list.size(); ++k) {
          if (i == k) continue;
          const std::size_t rk = alive_list[k];
          if (!row_alive[rk] || !row_alive[ri]) break;
          if (pop[i] > pop[k]) continue;
          // Tie-break equal rows deterministically: keep the lower index.
          if (pop[i] == pop[k] && ri < rk) continue;
          if (masked[i].is_subset_of(masked[k])) {
            result.dominated_rows.push_back(ri);
            kill_row(ri);
            changed = true;
            break;
          }
        }
      }
    }

    // --- Column dominance --------------------------------------------------
    if (opts.use_col_dominance) {
      // covering_rows[c] for alive columns, as bitsets over rows.
      std::vector<std::size_t> alive_cols;
      for (std::size_t c = col_alive.find_first(); c < C;
           c = col_alive.find_next(c + 1)) {
        alive_cols.push_back(c);
      }
      std::vector<util::BitVector> colbits(alive_cols.size(), util::BitVector(R));
      for (std::size_t r = 0; r < R; ++r) {
        if (!row_alive[r]) continue;
        for (std::size_t j = 0; j < alive_cols.size(); ++j) {
          if (rows[r].get(alive_cols[j])) colbits[j].set(r);
        }
      }
      std::vector<bool> col_dead(alive_cols.size(), false);
      for (std::size_t a = 0; a < alive_cols.size(); ++a) {
        if (col_dead[a]) continue;
        for (std::size_t b = 0; b < alive_cols.size(); ++b) {
          if (a == b || col_dead[b] || col_dead[a]) continue;
          // Column a is dominated by b when rows(b) ⊆ rows(a): any row
          // covering b also covers a.
          const std::size_t pa = colbits[a].count();
          const std::size_t pb = colbits[b].count();
          if (pb > pa) continue;
          if (pa == pb && alive_cols[a] < alive_cols[b]) continue;  // keep lower
          if (colbits[b].is_subset_of(colbits[a])) {
            col_dead[a] = true;
            result.dominated_cols.push_back(alive_cols[a]);
            kill_col(alive_cols[a]);
            changed = true;
            break;
          }
        }
      }
    }
  }

  // Assemble the residual problem.
  for (std::size_t r = 0; r < R; ++r) {
    if (row_alive[r]) result.residual_rows.push_back(r);
  }
  for (std::size_t c = col_alive.find_first(); c < C;
       c = col_alive.find_next(c + 1)) {
    result.residual_cols.push_back(c);
  }
  result.residual = DetectionMatrix(result.residual_rows.size(),
                                    result.residual_cols.size());
  for (std::size_t i = 0; i < result.residual_rows.size(); ++i) {
    const auto& orig = rows[result.residual_rows[i]];
    for (std::size_t j = 0; j < result.residual_cols.size(); ++j) {
      if (orig.get(result.residual_cols[j])) result.residual.set(i, j);
    }
  }
  return result;
}

}  // namespace fbist::cover
