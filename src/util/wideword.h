// Fixed-width big unsigned integers with mod-2^n arithmetic.
//
// Accumulator-based TPGs operate on a state register as wide as the unit
// under test's primary-input vector — hundreds of bits for the larger
// scan circuits.  WideWord provides exactly the arithmetic an n-bit
// accumulator datapath performs: addition, subtraction and
// multiplication truncated to n bits, plus the shift/xor mix an LFSR
// needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fbist::util {

class Rng;

/// Unsigned integer of a fixed bit width `n` (set at construction).
/// All arithmetic is performed modulo 2^n, mirroring an n-bit datapath.
class WideWord {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  WideWord() = default;
  /// Zero value of the given width.
  explicit WideWord(std::size_t bits);
  /// Low 64 bits set from `value`, rest zero.
  WideWord(std::size_t bits, std::uint64_t value);

  std::size_t bits() const { return bits_; }

  bool get_bit(std::size_t i) const;
  void set_bit(std::size_t i, bool value);

  bool is_zero() const;
  /// True iff the low bit is set (value is odd).
  bool is_odd() const { return !words_.empty() && (words_[0] & 1u); }
  /// Force the value odd by setting bit 0.
  void make_odd() {
    if (!words_.empty()) words_[0] |= 1u;
  }

  /// this := (this + o) mod 2^n
  WideWord& add(const WideWord& o);
  /// this := (this - o) mod 2^n
  WideWord& sub(const WideWord& o);
  /// this := (this * o) mod 2^n  (schoolbook, in place, widths must
  /// match; allocates only to square, o being *this)
  WideWord& mul(const WideWord& o);
  /// this := this XOR o
  WideWord& bxor(const WideWord& o);
  /// this := this AND o
  WideWord& band(const WideWord& o);
  /// Logical shift left by one, dropping the top bit; returns the dropped bit.
  bool shl1(bool carry_in = false);
  /// Logical shift right by one; returns the dropped low bit.
  bool shr1(bool carry_in = false);

  std::size_t popcount() const;

  bool operator==(const WideWord& o) const;
  bool operator!=(const WideWord& o) const { return !(*this == o); }
  /// Unsigned comparison; widths must match.
  bool operator<(const WideWord& o) const;

  /// Hex string, most-significant nibble first, width ceil(n/4) digits.
  std::string to_hex() const;
  /// Parse from hex; value truncated/zero-extended to `bits`.
  static WideWord from_hex(std::size_t bits, const std::string& hex);

  /// Uniformly random value of the given width.
  static WideWord random(std::size_t bits, Rng& rng);

  const std::vector<Word>& words() const { return words_; }

 private:
  void clear_tail();

  std::size_t bits_ = 0;
  std::vector<Word> words_;
};

}  // namespace fbist::util
