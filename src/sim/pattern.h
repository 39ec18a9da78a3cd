// Test patterns and pattern sets.
//
// A pattern assigns one bit per primary input.  PatternSet stores
// patterns in *bit-sliced* (pattern-parallel) layout: for each PI, a
// BitVector over pattern indices — exactly the layout the 64-way
// parallel simulator consumes, so simulation needs no transposition.
// Bulk writers transpose on the way in instead: write_tile turns up to
// 64 whole patterns into slice words with one bit-matrix transpose.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvector.h"
#include "util/rng.h"
#include "util/wideword.h"

namespace fbist::sim {

/// A set of test patterns over a fixed number of primary inputs.
class PatternSet {
 public:
  PatternSet() = default;
  PatternSet(std::size_t num_inputs, std::size_t num_patterns);

  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t size() const { return num_patterns_; }
  bool empty() const { return num_patterns_ == 0; }

  bool get(std::size_t pattern, std::size_t input) const;
  void set(std::size_t pattern, std::size_t input, bool value);

  /// Appends one pattern given as a WideWord (bit i -> input i).
  void append(const util::WideWord& pattern);
  /// Appends one pattern given as bools.
  void append(const std::vector<bool>& pattern);
  /// Appends all patterns of `other` (same num_inputs).
  void append_all(const PatternSet& other);

  /// Pattern `p` as a WideWord.
  util::WideWord pattern(std::size_t p) const;

  /// The bit-slice for one input: bit j == value of input in pattern j.
  const util::BitVector& slice(std::size_t input) const { return slices_[input]; }

  /// Copies all patterns of `src` (same num_inputs) over patterns
  /// [base, base + src.size()) of *this.  The destination range must
  /// already exist.
  void write_patterns(std::size_t base, const PatternSet& src);

  /// Overwrites patterns [base, base + count) with a tile of rows in
  /// util::WideWord word order: pattern base + j is
  /// rows[j*W .. j*W + W), W = ceil(num_inputs() / 64), bit i of the row
  /// being input i.  The range must lie in one 64-pattern slice word
  /// (base % 64 + count <= 64) and already exist (base + count <=
  /// size()).  Lanes of that word outside the range keep their bits;
  /// row bits at or past num_inputs() are ignored.  One 64x64 bit
  /// transpose per 64 inputs turns the rows into slice words.
  void write_tile(std::size_t base, std::size_t count,
                  const std::uint64_t* rows);

  /// Uniformly random pattern set.
  static PatternSet random(std::size_t num_inputs, std::size_t num_patterns,
                           util::Rng& rng);

  /// "0101..."-style rendering of pattern `p` (input 0 first).
  std::string pattern_string(std::size_t p) const;

 private:
  void ensure_capacity(std::size_t patterns);

  std::size_t num_inputs_ = 0;
  std::size_t num_patterns_ = 0;
  std::size_t capacity_ = 0;
  std::vector<util::BitVector> slices_;  // one per input, length capacity_
};

/// 64-pattern blocks per multi-block cone walk of sim::FaultSim (1024
/// patterns per visit of a cone), and the span of one lane packing
/// (pack_rows), so one packing fills one walk.  32 ran slower than 16
/// on the mid-size circuits' matrix builds.
constexpr std::size_t kChunkBlocks = 16;

/// Lane-packing plan for one shared pattern block group: several
/// independent rows (pattern sequences) laid out side by side in the
/// lanes of shared 64-pattern simulation blocks, so one good-value pass
/// and one cone walk per block serve every row at once (see
/// sim::FaultSim::run_packed).
struct LanePacking {
  struct Row {
    std::size_t row;     ///< Index into the caller's row sequence.
    std::size_t base;    ///< First pattern index inside the packed set.
    std::size_t length;  ///< Number of patterns.
  };
  std::vector<Row> rows;          ///< In caller order; bases ascending.
  std::size_t num_patterns = 0;   ///< Packed set size (end of the last row).

  std::size_t num_blocks() const { return (num_patterns + 63) / 64; }
};

/// Greedily packs rows of the given lengths, in order, into shared
/// 64-pattern blocks.  A row that does not fit in what is left of the
/// current block starts at the next block boundary, leaving the skipped
/// lanes as holes: a row of length <= 64 never straddles a block, and a
/// longer row starts block-aligned and spans as many blocks as it needs.
/// A packing spans at most kChunkBlocks blocks, one simulation chunk;
/// only a row longer than kChunkBlocks * 64 patterns gets a packing of
/// its own.
std::vector<LanePacking> pack_rows(const std::vector<std::size_t>& lengths);

}  // namespace fbist::sim
