#include "tpg/triplet.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tpg/accumulator.h"
#include "tpg/expand_oracle.h"
#include "tpg/lfsr.h"
#include "util/rng.h"

namespace fbist::tpg {
namespace {

TEST(Triplet, ToStringMentionsFields) {
  Triplet t;
  t.delta = util::WideWord(8, 0xAB);
  t.sigma = util::WideWord(8, 0x01);
  t.cycles = 42;
  const std::string s = t.to_string();
  EXPECT_NE(s.find("ab"), std::string::npos);
  EXPECT_NE(s.find("T=42"), std::string::npos);
}

TEST(ExpandTriplet, FirstPatternIsDelta) {
  AdderTpg tpg(16);
  Triplet t;
  t.delta = util::WideWord(16, 1234);
  t.sigma = util::WideWord(16, 77);
  t.cycles = 5;
  const auto ps = expand_triplet(tpg, t);
  ASSERT_EQ(ps.size(), 5u);
  EXPECT_EQ(ps.pattern(0), t.delta);
}

TEST(ExpandTriplet, FollowsStepFunction) {
  AdderTpg tpg(16);
  Triplet t;
  t.delta = util::WideWord(16, 100);
  t.sigma = util::WideWord(16, 10);
  t.cycles = 4;
  const auto ps = expand_triplet(tpg, t);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ps.pattern(i), util::WideWord(16, 100 + 10 * i));
  }
}

TEST(ExpandTriplet, ZeroCyclesEmpty) {
  AdderTpg tpg(8);
  Triplet t;
  t.delta = util::WideWord(8, 1);
  t.sigma = util::WideWord(8, 1);
  t.cycles = 0;
  EXPECT_TRUE(expand_triplet(tpg, t).empty());
}

TEST(ExpandTriplet, SigmaLegalizedForMultiplier) {
  MultiplierTpg tpg(8);
  Triplet t;
  t.delta = util::WideWord(8, 3);
  t.sigma = util::WideWord(8, 4);  // even: would collapse orbit to 0
  t.cycles = 3;
  const auto ps = expand_triplet(tpg, t);
  // legalized sigma = 5: 3, 15, 75.
  EXPECT_EQ(ps.pattern(1), util::WideWord(8, 15));
  EXPECT_EQ(ps.pattern(2), util::WideWord(8, 75));
}

TEST(ExpandTripletPrefix, TakesPrefixOnly) {
  AdderTpg tpg(16);
  Triplet t;
  t.delta = util::WideWord(16, 0);
  t.sigma = util::WideWord(16, 1);
  t.cycles = 10;
  const auto full = expand_triplet(tpg, t);
  const auto pre = expand_triplet_prefix(tpg, t, 4);
  ASSERT_EQ(pre.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pre.pattern(i), full.pattern(i));
  }
  // Prefix longer than cycles clamps.
  EXPECT_EQ(expand_triplet_prefix(tpg, t, 99).size(), 10u);
}

// expand_triplet_into against the per-pattern oracle on every TPG kind:
// widths on and off the 64-bit word boundary, runs that start and end at
// any lane and cross slice words, into a destination pre-filled with
// random bits that must survive outside the run (all of them when the
// run is empty).  The returned state is where a continuing run starts:
// delta stepped once per pattern.
TEST(ExpandTripletInto, MatchesPerPatternOracle) {
  util::Rng rng(19);
  for (const TpgKind kind : {TpgKind::kAdder, TpgKind::kSubtracter,
                             TpgKind::kMultiplier, TpgKind::kLfsr}) {
    for (const std::size_t width : {1, 63, 64, 65, 130, 233}) {
      const auto tpg = make_tpg(kind, width);
      for (const std::size_t base : {0, 1, 37, 63, 64, 100}) {
        for (const std::size_t n : {0, 1, 63, 64, 65, 200}) {
          SCOPED_TRACE(std::string(tpg_kind_name(kind)) + " width " +
                       std::to_string(width) + " base " +
                       std::to_string(base) + " n " + std::to_string(n));
          const Triplet t{util::WideWord::random(width, rng),
                          util::WideWord::random(width, rng), n};
          util::WideWord want_next;
          const sim::PatternSet want = oracle_expand(*tpg, t, &want_next);
          const sim::PatternSet before =
              sim::PatternSet::random(width, base + n + 70, rng);
          sim::PatternSet got = before;
          EXPECT_EQ(expand_triplet_into(*tpg, t, got, base), want_next);
          for (std::size_t p = 0; p < got.size(); ++p) {
            const bool in_run = p >= base && p < base + n;
            ASSERT_EQ(got.pattern(p),
                      in_run ? want.pattern(p - base) : before.pattern(p))
                << "pattern " << p;
          }
        }
      }
    }
  }
}

// Tpg::advance, the in-place clock that expansion runs once per
// pattern, against a bit-serial model of each TPG built here from its
// definition and sharing no WideWord arithmetic: ripple-carry add and
// subtract, shift-and-add multiply, and the LFSR's shift with the XOR of
// its taps fed in.  300 clocks at widths on and off the word boundary up
// to 700 bits, from a random state and from all ones (the multiplier's
// partial products carry across words); then a 300-pattern expansion at
// 700 bits against the per-pattern oracle.
TEST(TpgAdvance, MatchesBitSerialModel) {
  using Bits = std::vector<std::uint8_t>;
  const auto bits_of = [](const util::WideWord& w) {
    Bits b(w.bits());
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = w.get_bit(i) ? 1 : 0;
    return b;
  };
  // acc += (b << shift) mod 2^n, with b's bits inverted when `invert`.
  const auto add_shifted = [](Bits& acc, const Bits& b, std::size_t shift,
                              bool invert, unsigned carry) {
    for (std::size_t i = shift; i < acc.size(); ++i) {
      const unsigned sum = acc[i] + (b[i - shift] ^ (invert ? 1u : 0u)) + carry;
      acc[i] = static_cast<std::uint8_t>(sum & 1);
      carry = sum >> 1;
    }
  };
  const auto model_clock = [&](TpgKind kind,
                               const std::vector<std::size_t>& taps, Bits& s,
                               const Bits& sigma) {
    switch (kind) {
      case TpgKind::kAdder:
        add_shifted(s, sigma, 0, false, 0);
        break;
      case TpgKind::kSubtracter:  // s + ~sigma + 1
        add_shifted(s, sigma, 0, true, 1);
        break;
      case TpgKind::kMultiplier: {
        Bits product(s.size(), 0);
        for (std::size_t i = 0; i < sigma.size(); ++i) {
          if (sigma[i] != 0) add_shifted(product, s, i, false, 0);
        }
        s = product;
        break;
      }
      case TpgKind::kLfsr: {
        std::uint8_t feedback = 0;
        for (const std::size_t t : taps) feedback ^= s[t];
        for (std::size_t i = s.size(); i-- > 1;) s[i] = s[i - 1];
        s[0] = feedback;
        for (std::size_t i = 0; i < s.size(); ++i) s[i] ^= sigma[i];
        break;
      }
    }
  };
  util::Rng rng(31);
  for (const TpgKind kind : {TpgKind::kAdder, TpgKind::kSubtracter,
                             TpgKind::kMultiplier, TpgKind::kLfsr}) {
    for (const std::size_t width : {1, 63, 64, 65, 130, 700}) {
      const auto tpg = make_tpg(kind, width);
      const std::vector<std::size_t> taps =
          kind == TpgKind::kLfsr ? dynamic_cast<const LfsrTpg&>(*tpg).taps()
                                 : std::vector<std::size_t>{};
      util::WideWord ones(width);
      for (std::size_t i = 0; i < width; ++i) ones.set_bit(i, true);
      for (const bool from_ones : {false, true}) {
        SCOPED_TRACE(std::string(tpg_kind_name(kind)) + " width " +
                     std::to_string(width) + (from_ones ? " ones" : ""));
        const util::WideWord sigma =
            tpg->legalize_sigma(util::WideWord::random(width, rng));
        const Bits sigma_bits = bits_of(sigma);
        util::WideWord state =
            from_ones ? ones : util::WideWord::random(width, rng);
        Bits model = bits_of(state);
        for (int clock = 0; clock < 300; ++clock) {
          tpg->advance(state, sigma);
          model_clock(kind, taps, model, sigma_bits);
          ASSERT_EQ(bits_of(state), model) << "clock " << clock;
        }
      }
    }
    const auto tpg = make_tpg(kind, 700);
    const Triplet t{util::WideWord::random(700, rng),
                    util::WideWord::random(700, rng), 300};
    util::WideWord want_next;
    const sim::PatternSet want = oracle_expand(*tpg, t, &want_next);
    sim::PatternSet got(700, 300);
    EXPECT_EQ(expand_triplet_into(*tpg, t, got, 0), want_next);
    for (std::size_t p = 0; p < 300; ++p) {
      ASSERT_EQ(got.pattern(p), want.pattern(p))
          << tpg_kind_name(kind) << " pattern " << p;
    }
  }
}

TEST(ExpandAll, ConcatenatesInOrder) {
  AdderTpg tpg(8);
  Triplet a{util::WideWord(8, 0), util::WideWord(8, 1), 3};
  Triplet b{util::WideWord(8, 100), util::WideWord(8, 2), 2};
  const auto ps = expand_all(tpg, {a, b});
  ASSERT_EQ(ps.size(), 5u);
  EXPECT_EQ(ps.pattern(0), util::WideWord(8, 0));
  EXPECT_EQ(ps.pattern(2), util::WideWord(8, 2));
  EXPECT_EQ(ps.pattern(3), util::WideWord(8, 100));
  EXPECT_EQ(ps.pattern(4), util::WideWord(8, 102));
}

TEST(ExpandAll, EmptyListEmptySet) {
  AdderTpg tpg(8);
  EXPECT_TRUE(expand_all(tpg, {}).empty());
}

}  // namespace
}  // namespace fbist::tpg
