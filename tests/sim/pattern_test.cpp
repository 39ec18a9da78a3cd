#include "sim/pattern.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fbist::sim {
namespace {

TEST(PatternSet, FixedConstruction) {
  PatternSet ps(8, 10);
  EXPECT_EQ(ps.num_inputs(), 8u);
  EXPECT_EQ(ps.size(), 10u);
  EXPECT_FALSE(ps.get(0, 0));
  ps.set(3, 5, true);
  EXPECT_TRUE(ps.get(3, 5));
  ps.set(3, 5, false);
  EXPECT_FALSE(ps.get(3, 5));
}

TEST(PatternSet, AppendWideWord) {
  PatternSet ps(4, 0);
  util::WideWord w(4, 0b1010);
  ps.append(w);
  EXPECT_EQ(ps.size(), 1u);
  EXPECT_FALSE(ps.get(0, 0));
  EXPECT_TRUE(ps.get(0, 1));
  EXPECT_FALSE(ps.get(0, 2));
  EXPECT_TRUE(ps.get(0, 3));
}

TEST(PatternSet, AppendWidthMismatchThrows) {
  PatternSet ps(4, 0);
  EXPECT_THROW(ps.append(util::WideWord(5)), std::invalid_argument);
}

TEST(PatternSet, AppendBools) {
  PatternSet ps(3, 0);
  ps.append(std::vector<bool>{true, false, true});
  EXPECT_TRUE(ps.get(0, 0));
  EXPECT_FALSE(ps.get(0, 1));
  EXPECT_TRUE(ps.get(0, 2));
}

TEST(PatternSet, PatternRoundTrip) {
  util::Rng rng(4);
  PatternSet ps(65, 0);
  std::vector<util::WideWord> originals;
  for (int i = 0; i < 130; ++i) {
    originals.push_back(util::WideWord::random(65, rng));
    ps.append(originals.back());
  }
  for (std::size_t p = 0; p < originals.size(); ++p) {
    EXPECT_EQ(ps.pattern(p), originals[p]) << p;
  }
}

TEST(PatternSet, AppendAllConcatenates) {
  util::Rng rng(5);
  PatternSet a = PatternSet::random(10, 70, rng);
  PatternSet b = PatternSet::random(10, 30, rng);
  PatternSet all = a;
  all.append_all(b);
  ASSERT_EQ(all.size(), 100u);
  for (std::size_t p = 0; p < 70; ++p) EXPECT_EQ(all.pattern(p), a.pattern(p));
  for (std::size_t p = 0; p < 30; ++p) EXPECT_EQ(all.pattern(70 + p), b.pattern(p));
}

TEST(PatternSet, AppendAllToEmptyAdopts) {
  util::Rng rng(6);
  PatternSet a;
  const PatternSet b = PatternSet::random(7, 9, rng);
  a.append_all(b);
  EXPECT_EQ(a.size(), 9u);
  EXPECT_EQ(a.num_inputs(), 7u);
}

TEST(PatternSet, AppendAllWidthMismatchThrows) {
  util::Rng rng(7);
  PatternSet a = PatternSet::random(4, 2, rng);
  const PatternSet b = PatternSet::random(5, 2, rng);
  EXPECT_THROW(a.append_all(b), std::invalid_argument);
}

TEST(PatternSet, SlicesMatchPatterns) {
  util::Rng rng(8);
  const PatternSet ps = PatternSet::random(12, 200, rng);
  for (std::size_t i = 0; i < 12; ++i) {
    const auto& slice = ps.slice(i);
    for (std::size_t p = 0; p < 200; ++p) {
      EXPECT_EQ(slice.get(p), ps.get(p, i));
    }
  }
}

TEST(PatternSet, RandomIsDeterministic) {
  util::Rng a(99), b(99);
  const PatternSet x = PatternSet::random(20, 50, a);
  const PatternSet y = PatternSet::random(20, 50, b);
  for (std::size_t p = 0; p < 50; ++p) {
    EXPECT_EQ(x.pattern(p), y.pattern(p));
  }
}

TEST(PatternSet, PatternString) {
  PatternSet ps(4, 1);
  ps.set(0, 1, true);
  ps.set(0, 3, true);
  EXPECT_EQ(ps.pattern_string(0), "0101");
}

// Random tile of `count` rows in WideWord word order: W words per row,
// bits at or past `width` set too, which write_tile must ignore.
std::vector<std::uint64_t> random_tile(std::size_t width, std::size_t count,
                                       util::Rng& rng) {
  std::vector<std::uint64_t> rows(count * ((width + 63) / 64));
  for (auto& w : rows) w = rng.next_u64();
  return rows;
}

bool row_bit(const std::vector<std::uint64_t>& rows, std::size_t width,
             std::size_t j, std::size_t input) {
  const std::size_t words = (width + 63) / 64;
  return (rows[j * words + input / 64] >> (input % 64)) & 1u;
}

// Every lane offset of a slice word, with one-pattern tiles and tiles
// that run to the end of the word (64 patterns at offset 0), on widths
// on and off a multiple of 64.  Bits outside the tile keep the random
// values the set was filled with.
TEST(PatternSet, WriteTileEveryLaneOffset) {
  util::Rng rng(21);
  for (const std::size_t width : {1, 63, 64, 65, 130, 233}) {
    for (std::size_t lane = 0; lane < 64; ++lane) {
      for (const std::size_t count : {std::size_t{1}, 64 - lane}) {
        SCOPED_TRACE("width " + std::to_string(width) + " lane " +
                     std::to_string(lane) + " count " + std::to_string(count));
        const std::size_t base = 64 + lane;  // middle word of three
        const PatternSet before = PatternSet::random(width, 192, rng);
        const std::vector<std::uint64_t> rows = random_tile(width, count, rng);
        PatternSet ps = before;
        ps.write_tile(base, count, rows.data());
        for (std::size_t p = 0; p < ps.size(); ++p) {
          for (std::size_t i = 0; i < width; ++i) {
            const bool want = p >= base && p < base + count
                                  ? row_bit(rows, width, p - base, i)
                                  : before.get(p, i);
            ASSERT_EQ(ps.get(p, i), want) << "pattern " << p << " input " << i;
          }
        }
      }
    }
  }
}

// A tile that ends at size() on a set whose size is not a multiple of
// 64 leaves every slice bit at or past size() clear — on a fixed-size
// set (slices end at size()) and on an appended one (slices run on to
// the capacity).
TEST(PatternSet, WriteTileKeepsTailPastSizeClear) {
  util::Rng rng(22);
  const std::size_t width = 70;
  PatternSet fixed(width, 100);
  PatternSet appended(width, 0);
  for (std::size_t p = 0; p < 100; ++p) appended.append(util::WideWord(width));
  for (PatternSet* ps : {&fixed, &appended}) {
    const std::vector<std::uint64_t> ones(36 * 2, ~std::uint64_t{0});
    ps->write_tile(64, 36, ones.data());
    for (std::size_t i = 0; i < width; ++i) {
      const util::BitVector& slice = ps->slice(i);
      EXPECT_EQ(slice.count(), 36u) << "input " << i;
      EXPECT_EQ(slice.find_next(ps->size()), slice.size()) << "input " << i;
    }
    const std::vector<std::uint64_t> rows = random_tile(width, 1, rng);
    ps->write_tile(99, 1, rows.data());
    for (std::size_t i = 0; i < width; ++i) {
      EXPECT_EQ(ps->get(99, i), row_bit(rows, width, 0, i));
      EXPECT_EQ(ps->slice(i).find_next(ps->size()), ps->slice(i).size());
    }
  }
}

}  // namespace
}  // namespace fbist::sim
