#include "tpg/triplet.h"

#include <string>

#include <gtest/gtest.h>

#include "tpg/accumulator.h"
#include "tpg/expand_oracle.h"
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
