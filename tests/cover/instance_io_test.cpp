#include "cover/instance_io.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cover/exact.h"
#include "util/rng.h"

namespace fbist::cover {
namespace {

DetectionMatrix random_matrix(util::Rng& rng, std::size_t R, std::size_t C) {
  DetectionMatrix m(R, C);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      if (rng.next_bool(0.3)) m.set(r, c);
    }
  }
  return m;
}

TEST(InstanceIo, RoundTripRandomMatrices) {
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t R = 1 + rng.next_below(20);
    const std::size_t C = 1 + rng.next_below(40);
    const auto m = random_matrix(rng, R, C);
    const auto back = instance_from_string(instance_to_string(m));
    ASSERT_EQ(back.num_rows(), R);
    ASSERT_EQ(back.num_cols(), C);
    for (std::size_t r = 0; r < R; ++r) {
      EXPECT_EQ(back.row(r), m.row(r)) << "trial " << trial << " row " << r;
    }
  }
}

TEST(InstanceIo, EmptyRowsPreserved) {
  DetectionMatrix m(3, 4);
  m.set(0, 1);
  m.set(2, 3);
  const auto back = instance_from_string(instance_to_string(m));
  EXPECT_TRUE(back.row(1).none());
  EXPECT_TRUE(back.get(2, 3));
}

TEST(InstanceIo, CommentsIgnored) {
  const auto m = instance_from_string("# hi\nscp 1 2\n# mid\nrow 0 1\n");
  EXPECT_TRUE(m.get(0, 0));
  EXPECT_TRUE(m.get(0, 1));
}

TEST(InstanceIo, RejectsMalformed) {
  EXPECT_THROW(instance_from_string(""), std::runtime_error);
  EXPECT_THROW(instance_from_string("bogus 1 1\n"), std::runtime_error);
  EXPECT_THROW(instance_from_string("scp 1 2\nrow 5\n"), std::runtime_error);
  EXPECT_THROW(instance_from_string("scp 2 2\nrow 0\n"), std::runtime_error);
  EXPECT_THROW(instance_from_string("scp 1 2\nrow 0\nrow 1\n"),
               std::runtime_error);
  EXPECT_THROW(instance_from_string("scp 1 2\nrow x\n"), std::runtime_error);
}

// Dimensions and column indices read strictly: a sign or trailing junk
// is the line's error, never a wrapped or truncated number.
TEST(InstanceIo, RejectsMalformedNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& want) {
    try {
      instance_from_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  };
  for (const std::string bad : {"-1", "+6", "6junk"}) {
    SCOPED_TRACE(bad);
    expect_error("scp " + bad + " 2\n", "scp line 1: bad header dimensions");
    expect_error("scp 1 " + bad + "\n", "scp line 1: bad header dimensions");
    expect_error("scp 1 8\nrow 0 " + bad + "\n",
                 "scp line 2: bad column index");
  }
}

TEST(InstanceIo, SolverAgreesAcrossRoundTrip) {
  util::Rng rng(9);
  auto m = random_matrix(rng, 8, 12);
  for (std::size_t c = 0; c < 12; ++c) m.set(rng.next_below(8), c);
  const auto back = instance_from_string(instance_to_string(m));
  EXPECT_EQ(solve_exact(m).rows.size(), solve_exact(back).rows.size());
}

}  // namespace
}  // namespace fbist::cover
