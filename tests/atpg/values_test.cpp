#include "atpg/values.h"

#include <cstddef>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "atpg/tern_fold.h"

namespace fbist::atpg {
namespace {

using netlist::GateType;

TEST(Tern, NotTable) {
  EXPECT_EQ(tern_not(Tern::k0), Tern::k1);
  EXPECT_EQ(tern_not(Tern::k1), Tern::k0);
  EXPECT_EQ(tern_not(Tern::kX), Tern::kX);
}

TEST(Tern, AndTable) {
  EXPECT_EQ(tern_and(Tern::k0, Tern::kX), Tern::k0);
  EXPECT_EQ(tern_and(Tern::kX, Tern::k0), Tern::k0);
  EXPECT_EQ(tern_and(Tern::k1, Tern::k1), Tern::k1);
  EXPECT_EQ(tern_and(Tern::k1, Tern::kX), Tern::kX);
  EXPECT_EQ(tern_and(Tern::kX, Tern::kX), Tern::kX);
}

TEST(Tern, OrTable) {
  EXPECT_EQ(tern_or(Tern::k1, Tern::kX), Tern::k1);
  EXPECT_EQ(tern_or(Tern::k0, Tern::k0), Tern::k0);
  EXPECT_EQ(tern_or(Tern::k0, Tern::kX), Tern::kX);
}

TEST(Tern, XorTable) {
  EXPECT_EQ(tern_xor(Tern::k0, Tern::k1), Tern::k1);
  EXPECT_EQ(tern_xor(Tern::k1, Tern::k1), Tern::k0);
  EXPECT_EQ(tern_xor(Tern::kX, Tern::k1), Tern::kX);
}

TEST(Val5, Classification) {
  EXPECT_TRUE(kVX.is_x());
  EXPECT_FALSE(kV0.is_x());
  EXPECT_TRUE(kVD.is_d_or_dbar());
  EXPECT_TRUE(kVDbar.is_d_or_dbar());
  EXPECT_FALSE(kV1.is_d_or_dbar());
  EXPECT_TRUE(kV0.is_definite_equal());
  EXPECT_FALSE(kVD.is_definite_equal());
}

TEST(Val5, DPropagationThroughAnd) {
  // D AND 1 = D; D AND 0 = 0; D AND X = X-ish (good side X?)
  Val5 in1[2] = {kVD, kV1};
  EXPECT_EQ(eval_gate5(GateType::kAnd, in1, 2), kVD);
  Val5 in2[2] = {kVD, kV0};
  EXPECT_EQ(eval_gate5(GateType::kAnd, in2, 2), kV0);
}

TEST(Val5, DPropagationThroughNand) {
  Val5 in[2] = {kVD, kV1};
  EXPECT_EQ(eval_gate5(GateType::kNand, in, 2), kVDbar);
}

TEST(Val5, DDbarCancellation) {
  // D AND D' = (1&0, 0&1) = (0,0) = 0.
  Val5 in[2] = {kVD, kVDbar};
  EXPECT_EQ(eval_gate5(GateType::kAnd, in, 2), kV0);
  // D XOR D = (0,0)=0; D XOR D' = (1^0=1, 0^1=1) = 1.
  Val5 x1[2] = {kVD, kVD};
  EXPECT_EQ(eval_gate5(GateType::kXor, x1, 2), kV0);
  Val5 x2[2] = {kVD, kVDbar};
  EXPECT_EQ(eval_gate5(GateType::kXor, x2, 2), kV1);
}

TEST(Val5, XAbsorption) {
  Val5 in[2] = {kVX, kV0};
  EXPECT_EQ(eval_gate5(GateType::kAnd, in, 2), kV0);
  EXPECT_EQ(eval_gate5(GateType::kOr, in, 2), kVX);
}

TEST(Val5, NotOnD) {
  Val5 in[1] = {kVD};
  EXPECT_EQ(eval_gate5(GateType::kNot, in, 1), kVDbar);
}

TEST(Val5, Names) {
  EXPECT_EQ(val5_name(kV0), "0");
  EXPECT_EQ(val5_name(kV1), "1");
  EXPECT_EQ(val5_name(kVX), "X");
  EXPECT_EQ(val5_name(kVD), "D");
  EXPECT_EQ(val5_name(kVDbar), "D'");
  EXPECT_EQ(val5_name(Val5{Tern::k1, Tern::kX}), "1/X");
}

constexpr Tern kTerns[] = {Tern::k0, Tern::k1, Tern::kX};

TEST(Val5, RoundTripsAllNineValues) {
  for (const Tern g : kTerns) {
    for (const Tern f : kTerns) {
      const Val5 v{g, f};
      EXPECT_EQ(v.good(), g);
      EXPECT_EQ(v.faulty(), f);
    }
  }
}

// Every gate type over every fanin tuple of arity 1-3 (BUF and NOT: 1)
// drawn from the nine (good, faulty) values must evaluate exactly as the
// per-side ternary fold of tests/atpg/tern_fold.h.
TEST(Val5, EvalMatchesPerSideFoldExhaustively) {
  std::vector<Val5> nine;
  for (const Tern g : kTerns) {
    for (const Tern f : kTerns) nine.push_back(Val5{g, f});
  }
  constexpr GateType kTypes[] = {GateType::kBuf, GateType::kNot,
                                 GateType::kAnd, GateType::kNand,
                                 GateType::kOr,  GateType::kNor,
                                 GateType::kXor, GateType::kXnor};
  std::size_t checked = 0;
  for (const GateType type : kTypes) {
    const bool unary = type == GateType::kBuf || type == GateType::kNot;
    for (std::size_t n = 1; n <= (unary ? 1u : 3u); ++n) {
      std::size_t tuples = 1;
      for (std::size_t i = 0; i < n; ++i) tuples *= nine.size();
      for (std::size_t t = 0; t < tuples; ++t) {
        Val5 in[3];
        for (std::size_t i = 0, rest = t; i < n; ++i, rest /= nine.size()) {
          in[i] = nine[rest % nine.size()];
        }
        const Val5 want = fold_gate5(type, in, n);
        const Val5 got = eval_gate5(type, in, n);
        ASSERT_EQ(got, want)
            << netlist::gate_type_name(type) << " over " << val5_name(in[0])
            << (n > 1 ? ", " + val5_name(in[1]) : "")
            << (n > 2 ? ", " + val5_name(in[2]) : "") << ": got "
            << val5_name(got) << ", want " << val5_name(want);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2 * 9 + 6 * (9 + 81 + 729));
}

TEST(Val5, EvalRejectsPrimaryInput) {
  const Val5 in[1] = {kV0};
  EXPECT_THROW(eval_gate5(GateType::kInput, in, 1), std::logic_error);
}

}  // namespace
}  // namespace fbist::atpg
