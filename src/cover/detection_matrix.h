// Detection Matrix — the set-covering instance of the reseeding problem.
//
// Rows correspond to candidate triplets, columns to target faults.
// d[i][j] = 1 iff the test set of triplet i detects fault j.  Alongside
// the bits, the matrix can carry the earliest detecting pattern index of
// each (triplet, fault) pair, which the optimizer uses for the paper's
// per-triplet test-length trimming.
//
// The earliest indices are one flat row-major array of 16-bit cells
// (rows x cols), 0xFFFF for a cell no pattern detects.  An index lies
// below the triplet's evolution length T, so the matrix holds the
// indices of any T up to kMaxCycles = 65535; the builder
// (reseed/initial_builder.h) rejects a larger T.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/bitvector.h"

namespace fbist::cover {

class DetectionMatrix {
 public:
  /// Largest evolution length T whose earliest indices fit a cell: an
  /// index below T is at most 65534, under the "none" marker 0xFFFF.
  static constexpr std::size_t kMaxCycles = 65535;

  DetectionMatrix() = default;
  DetectionMatrix(std::size_t rows, std::size_t cols);

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return cols_; }

  bool get(std::size_t row, std::size_t col) const { return rows_[row].get(col); }
  void set(std::size_t row, std::size_t col, bool v = true) { rows_[row].set(col, v); }

  /// Faults detected by row (as a bit vector over columns).
  const util::BitVector& row(std::size_t r) const { return rows_[r]; }
  util::BitVector& row(std::size_t r) { return rows_[r]; }

  /// Replaces a whole row.
  void set_row(std::size_t r, util::BitVector bits);

  /// Union of all rows — the coverable column set.
  util::BitVector coverable() const;
  /// True iff every column is covered by some row.
  bool all_columns_coverable() const;

  /// Number of set bits in the whole matrix.
  std::size_t density() const;

  /// Optional earliest-detection payload.  track_earliest() starts it
  /// with no cell detected; set_earliest() then stores the pattern index
  /// of a cell's first detection, below kMaxCycles.  Writers of distinct
  /// rows may run at once.  has_earliest() is true for a tracked matrix
  /// with at least one row.
  void track_earliest();
  bool has_earliest() const { return tracks_earliest_ && !rows_.empty(); }
  void set_earliest(std::size_t r, std::size_t c, std::uint32_t e) {
    assert(e < kMaxCycles);
    earliest_[r * cols_ + c] = static_cast<std::uint16_t>(e);
  }
  /// The cell's earliest index, or UINT32_MAX (sim::kNotDetected) when
  /// no pattern detects it.
  std::uint32_t earliest(std::size_t r, std::size_t c) const {
    const std::uint16_t e = earliest_[r * cols_ + c];
    return e == kNone ? std::numeric_limits<std::uint32_t>::max() : e;
  }

 private:
  static constexpr std::uint16_t kNone = 0xFFFF;

  std::size_t cols_ = 0;
  std::vector<util::BitVector> rows_;
  bool tracks_earliest_ = false;
  std::vector<std::uint16_t> earliest_;  // rows x cols, row-major
};

}  // namespace fbist::cover
