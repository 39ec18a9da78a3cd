#include "util/wideword.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fbist::util {
namespace {

TEST(WideWord, ZeroConstruction) {
  WideWord w(100);
  EXPECT_EQ(w.bits(), 100u);
  EXPECT_TRUE(w.is_zero());
  EXPECT_FALSE(w.is_odd());
}

TEST(WideWord, ValueConstruction) {
  WideWord w(70, 0xDEADBEEFull);
  EXPECT_FALSE(w.is_zero());
  EXPECT_TRUE(w.is_odd());
  EXPECT_TRUE(w.get_bit(0));
  EXPECT_TRUE(w.get_bit(1));
  EXPECT_TRUE(w.get_bit(31));
  EXPECT_FALSE(w.get_bit(64));
}

TEST(WideWord, ValueTruncatedToWidth) {
  WideWord w(4, 0xFF);
  EXPECT_EQ(w.popcount(), 4u);
  EXPECT_FALSE(w.get_bit(3) && w.popcount() > 4);
}

TEST(WideWord, SetAndGetBitsAcrossWords) {
  WideWord w(130);
  w.set_bit(0, true);
  w.set_bit(64, true);
  w.set_bit(129, true);
  EXPECT_EQ(w.popcount(), 3u);
  EXPECT_TRUE(w.get_bit(64));
  w.set_bit(64, false);
  EXPECT_EQ(w.popcount(), 2u);
}

TEST(WideWord, AddBasic) {
  WideWord a(64, 7), b(64, 8);
  a.add(b);
  WideWord expect(64, 15);
  EXPECT_EQ(a, expect);
}

TEST(WideWord, AddCarryPropagation) {
  WideWord a(128, ~0ull);  // low word all ones
  WideWord b(128, 1);
  a.add(b);
  // result = 2^64 -> bit 64 set only.
  EXPECT_EQ(a.popcount(), 1u);
  EXPECT_TRUE(a.get_bit(64));
}

TEST(WideWord, AddWrapsModulo2N) {
  WideWord a(8, 0xFF), b(8, 1);
  a.add(b);
  EXPECT_TRUE(a.is_zero());
}

TEST(WideWord, SubBasic) {
  WideWord a(64, 20), b(64, 8);
  a.sub(b);
  EXPECT_EQ(a, WideWord(64, 12));
}

TEST(WideWord, SubWrapsModulo2N) {
  WideWord a(8, 0), b(8, 1);
  a.sub(b);
  EXPECT_EQ(a, WideWord(8, 0xFF));
}

TEST(WideWord, SubBorrowAcrossWords) {
  WideWord a(128);
  a.set_bit(64, true);  // 2^64
  WideWord b(128, 1);
  a.sub(b);
  // 2^64 - 1 = all ones in the low word.
  EXPECT_EQ(a.popcount(), 64u);
  EXPECT_FALSE(a.get_bit(64));
}

TEST(WideWord, MulBasic) {
  WideWord a(64, 6), b(64, 7);
  a.mul(b);
  EXPECT_EQ(a, WideWord(64, 42));
}

TEST(WideWord, MulTruncates) {
  WideWord a(8, 16), b(8, 16);
  a.mul(b);  // 256 mod 256 = 0
  EXPECT_TRUE(a.is_zero());
}

TEST(WideWord, MulCrossWord) {
  // (2^32)^2 = 2^64 -> bit 64 in a 128-bit word.
  WideWord a(128);
  a.set_bit(32, true);
  WideWord b = a;
  a.mul(b);
  EXPECT_EQ(a.popcount(), 1u);
  EXPECT_TRUE(a.get_bit(64));
}

TEST(WideWord, XorAndAnd) {
  WideWord a(70, 0b1100), b(70, 0b1010);
  WideWord x = a;
  x.bxor(b);
  EXPECT_EQ(x, WideWord(70, 0b0110));
  WideWord n = a;
  n.band(b);
  EXPECT_EQ(n, WideWord(70, 0b1000));
}

TEST(WideWord, Shl1DropsTopReturnsIt) {
  WideWord a(4, 0b1001);
  const bool dropped = a.shl1();
  EXPECT_TRUE(dropped);
  EXPECT_EQ(a, WideWord(4, 0b0010));
  const bool dropped2 = a.shl1(true);
  EXPECT_FALSE(dropped2);
  EXPECT_EQ(a, WideWord(4, 0b0101));
}

TEST(WideWord, Shr1ReturnsLowBit) {
  WideWord a(4, 0b0101);
  EXPECT_TRUE(a.shr1());
  EXPECT_EQ(a, WideWord(4, 0b0010));
  EXPECT_FALSE(a.shr1(true));
  EXPECT_EQ(a, WideWord(4, 0b1001));
}

TEST(WideWord, ShiftAcrossWordBoundary) {
  WideWord a(128);
  a.set_bit(63, true);
  a.shl1();
  EXPECT_TRUE(a.get_bit(64));
  a.shr1();
  EXPECT_TRUE(a.get_bit(63));
}

TEST(WideWord, MakeOdd) {
  WideWord a(16, 4);
  EXPECT_FALSE(a.is_odd());
  a.make_odd();
  EXPECT_TRUE(a.is_odd());
  EXPECT_EQ(a, WideWord(16, 5));
}

TEST(WideWord, Comparison) {
  WideWord a(128, 5), b(128, 9);
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  b.set_bit(100, true);
  EXPECT_TRUE(a < b);
}

TEST(WideWord, HexRoundTrip) {
  Rng rng(3);
  for (const std::size_t bits : {1u, 7u, 64u, 65u, 200u}) {
    const WideWord w = WideWord::random(bits, rng);
    const WideWord back = WideWord::from_hex(bits, w.to_hex());
    EXPECT_EQ(w, back) << "bits=" << bits;
  }
}

TEST(WideWord, FromHexRejectsGarbage) {
  EXPECT_THROW(WideWord::from_hex(8, "zz"), std::invalid_argument);
}

TEST(WideWord, RandomRespectsWidth) {
  Rng rng(11);
  const WideWord w = WideWord::random(70, rng);
  EXPECT_EQ(w.bits(), 70u);
  // Bits beyond width must not exist: popcount <= 70 guaranteed by width,
  // and the backing store's tail must be masked.
  EXPECT_LE(w.popcount(), 70u);
  EXPECT_EQ(w.words()[1] >> 6, 0u);
}

// Property: add then sub restores the original (group structure).
TEST(WideWordProperty, AddSubInverse) {
  Rng rng(17);
  for (int t = 0; t < 30; ++t) {
    const std::size_t bits = 1 + rng.next_below(300);
    const WideWord a = WideWord::random(bits, rng);
    const WideWord b = WideWord::random(bits, rng);
    WideWord c = a;
    c.add(b);
    c.sub(b);
    EXPECT_EQ(c, a) << "bits=" << bits;
  }
}

// Property: multiplication by an odd constant is injective mod 2^n
// (distinct inputs stay distinct) — the property the multiplier TPG
// relies on.  Verified exhaustively for n=6.
TEST(WideWordProperty, OddMulIsBijectiveMod2N) {
  const std::size_t n = 6;
  for (std::uint64_t sigma = 1; sigma < 64; sigma += 2) {
    std::vector<bool> seen(64, false);
    for (std::uint64_t x = 0; x < 64; ++x) {
      WideWord w(n, x);
      w.mul(WideWord(n, sigma));
      const std::uint64_t y = w.words()[0];
      EXPECT_FALSE(seen[y]) << "sigma=" << sigma << " collision at x=" << x;
      seen[y] = true;
    }
  }
}

// mul against shift-and-add built from add and shl1 alone, at widths on
// and off the word boundary up to 700 bits (11 words), where partial
// products carry across words: random operands, an all-ones operand
// (every partial product carries) and squaring in place (a.mul(a)).
TEST(WideWordProperty, MulMatchesShiftAndAdd) {
  const auto shift_and_add = [](const WideWord& a, const WideWord& b) {
    WideWord r(a.bits());
    for (std::size_t i = b.bits(); i-- > 0;) {
      r.shl1();
      if (b.get_bit(i)) r.add(a);
    }
    return r;
  };
  Rng rng(29);
  for (const std::size_t bits : {1, 63, 64, 65, 130, 700}) {
    WideWord ones(bits);
    for (std::size_t i = 0; i < bits; ++i) ones.set_bit(i, true);
    for (int t = 0; t < 6; ++t) {
      const WideWord a = t == 0 ? ones : WideWord::random(bits, rng);
      const WideWord b = t == 1 ? ones : WideWord::random(bits, rng);
      WideWord got = a;
      got.mul(b);
      EXPECT_EQ(got, shift_and_add(a, b)) << "bits=" << bits << " t=" << t;
      WideWord square = a;
      square.mul(square);
      EXPECT_EQ(square, shift_and_add(a, a)) << "bits=" << bits << " t=" << t;
    }
  }
}

// Property: shl1 followed by shr1 restores value when the dropped top
// bit is fed back in.
TEST(WideWordProperty, ShiftRoundTrip) {
  Rng rng(23);
  for (int t = 0; t < 20; ++t) {
    const std::size_t bits = 1 + rng.next_below(200);
    const WideWord orig = WideWord::random(bits, rng);
    WideWord w = orig;
    const bool top = w.shl1();
    w.shr1(top);
    EXPECT_EQ(w, orig);
  }
}

}  // namespace
}  // namespace fbist::util
