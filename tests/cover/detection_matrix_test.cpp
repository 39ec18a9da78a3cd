#include "cover/detection_matrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace fbist::cover {
namespace {

TEST(DetectionMatrix, ConstructionAndBits) {
  DetectionMatrix m(3, 5);
  EXPECT_EQ(m.num_rows(), 3u);
  EXPECT_EQ(m.num_cols(), 5u);
  EXPECT_FALSE(m.get(1, 2));
  m.set(1, 2);
  EXPECT_TRUE(m.get(1, 2));
  m.set(1, 2, false);
  EXPECT_FALSE(m.get(1, 2));
}

TEST(DetectionMatrix, SetRowValidatesWidth) {
  DetectionMatrix m(2, 4);
  EXPECT_THROW(m.set_row(0, util::BitVector(3)), std::invalid_argument);
  util::BitVector row(4);
  row.set(0);
  row.set(3);
  m.set_row(0, row);
  EXPECT_TRUE(m.get(0, 0));
  EXPECT_TRUE(m.get(0, 3));
}

TEST(DetectionMatrix, CoverableUnion) {
  DetectionMatrix m(2, 4);
  m.set(0, 0);
  m.set(1, 2);
  const auto u = m.coverable();
  EXPECT_TRUE(u.get(0));
  EXPECT_FALSE(u.get(1));
  EXPECT_TRUE(u.get(2));
  EXPECT_FALSE(m.all_columns_coverable());
  m.set(0, 1);
  m.set(1, 3);
  EXPECT_TRUE(m.all_columns_coverable());
}

TEST(DetectionMatrix, Density) {
  DetectionMatrix m(2, 3);
  EXPECT_EQ(m.density(), 0u);
  m.set(0, 0);
  m.set(1, 1);
  m.set(1, 2);
  EXPECT_EQ(m.density(), 3u);
}

TEST(DetectionMatrix, EarliestPayload) {
  // Column counts on both sides of a 64-cell boundary: every cell reads
  // back the index it was given, the largest one included, and every
  // other cell reads "none".
  for (const std::size_t cols : {63u, 64u, 65u}) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    DetectionMatrix m(3, cols);
    EXPECT_FALSE(m.has_earliest());
    m.track_earliest();
    EXPECT_TRUE(m.has_earliest());
    std::vector<std::vector<std::uint32_t>> want(
        3, std::vector<std::uint32_t>(cols, UINT32_MAX));
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = r; c < cols; c += r + 2) {
        want[r][c] = static_cast<std::uint32_t>(r * 1000 + c);
      }
    }
    want[2][cols - 1] = DetectionMatrix::kMaxCycles - 1;
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (want[r][c] != UINT32_MAX) m.set_earliest(r, c, want[r][c]);
      }
    }
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(m.earliest(r, c), want[r][c]) << r << "," << c;
      }
    }
  }
  // A tracked matrix with rows says so even with no columns; one with
  // no rows never does.
  DetectionMatrix no_cols(2, 0);
  no_cols.track_earliest();
  EXPECT_TRUE(no_cols.has_earliest());
  DetectionMatrix no_rows(0, 5);
  no_rows.track_earliest();
  EXPECT_FALSE(no_rows.has_earliest());
}

}  // namespace
}  // namespace fbist::cover
