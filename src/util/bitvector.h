// Packed dynamic bit vector with word-level set operations.
//
// BitVector is the workhorse of the set-covering layer: detection-matrix
// rows (one bit per fault) and column masks are BitVectors, and the
// reduction rules (essentiality, dominance) are expressed as word-wide
// subset / intersection tests.  Fault simulation and ATPG use them as
// per-fault masks; single-bit get/set/reset/flip are defined inline in
// this header, since those callers test one bit per (site, row) or per
// fault in their hot loops.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fbist::util {

/// Fixed-size (after construction) packed bit vector.
///
/// All binary operations require equal sizes; this is checked in debug
/// builds and is a precondition otherwise.
class BitVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  BitVector() = default;
  explicit BitVector(std::size_t size, bool value = false);

  /// Number of bits.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const {
    assert(i < size_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  void set(std::size_t i, bool value = true) {
    assert(i < size_);
    const Word mask = Word{1} << (i % kWordBits);
    if (value) {
      words_[i / kWordBits] |= mask;
    } else {
      words_[i / kWordBits] &= ~mask;
    }
  }
  void reset(std::size_t i) { set(i, false); }
  void flip(std::size_t i) {
    assert(i < size_);
    words_[i / kWordBits] ^= Word{1} << (i % kWordBits);
  }

  /// Sets every bit to `value`.
  void fill(bool value);
  /// Word-level store: the bits of word `w` under `mask` take the values
  /// of `bits`, the others keep theirs.  Bits past size() stay clear.
  void write_word(std::size_t w, Word mask, Word bits);

  /// Number of set bits.
  std::size_t count() const;
  /// True iff no bit is set.
  bool none() const;
  /// True iff at least one bit is set.
  bool any() const { return !none(); }

  /// Index of the lowest set bit, or `size()` if none.
  std::size_t find_first() const;
  /// Index of the lowest set bit at or after `from`, or `size()` if none.
  std::size_t find_next(std::size_t from) const;
  /// Index of the highest set bit, or `size()` if none.
  std::size_t find_last() const;

  BitVector& operator|=(const BitVector& o);
  BitVector& operator&=(const BitVector& o);
  BitVector& operator^=(const BitVector& o);
  /// this := this & ~o
  BitVector& and_not(const BitVector& o);

  /// True iff every set bit of *this is also set in `o` (this ⊆ o).
  bool is_subset_of(const BitVector& o) const;
  /// True iff (*this & o) has at least one set bit.
  bool intersects(const BitVector& o) const;
  /// popcount(*this & o) without materialising the intersection.
  std::size_t count_and(const BitVector& o) const;

  /// Column compaction: returns a vector of mask.count() bits whose
  /// k-th bit is the bit of *this at the position of the k-th set bit
  /// of `mask` (sizes must match).  Word-level (BMI2 pext where
  /// available) — this is the hot step of restricting detection-matrix
  /// rows to the coverable column set.
  BitVector gather(const BitVector& mask) const;

  bool operator==(const BitVector& o) const;
  bool operator!=(const BitVector& o) const { return !(*this == o); }

  /// Iterate set bits: calls fn(index) for each set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * kWordBits + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Direct word access (read-only), used by hot loops in the solver.
  const std::vector<Word>& words() const { return words_; }

 private:
  void clear_tail();

  std::size_t size_ = 0;
  std::vector<Word> words_;
};

}  // namespace fbist::util
