#include "bist/misr.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/registry.h"
#include "sim/fault_sim.h"
#include "util/rng.h"

namespace fbist::bist {
namespace {

TEST(Misr, ConstructionValidated) {
  EXPECT_THROW(Misr(0), std::invalid_argument);
  EXPECT_THROW(Misr(4, {9}), std::invalid_argument);
  Misr ok(8);
  EXPECT_FALSE(ok.taps().empty());
}

TEST(Misr, StepWidthChecked) {
  Misr m(8);
  EXPECT_THROW(m.step(util::WideWord(4), util::WideWord(8)),
               std::invalid_argument);
}

TEST(Misr, EmptyStreamGivesZeroSignature) {
  Misr m(8);
  EXPECT_TRUE(m.signature({}).is_zero());
}

TEST(Misr, SignatureDeterministic) {
  Misr m(16);
  util::Rng rng(3);
  std::vector<util::WideWord> stream;
  for (int i = 0; i < 50; ++i) stream.push_back(util::WideWord::random(16, rng));
  EXPECT_EQ(m.signature(stream), m.signature(stream));
}

TEST(Misr, SignatureIsLinearOverGf2) {
  // With a zero seed, sig(x ⊕ y) == sig(x) ⊕ sig(y) stream-wise.
  Misr m(12);
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<util::WideWord> x, y, xy;
    const int len = 20;
    for (int i = 0; i < len; ++i) {
      x.push_back(util::WideWord::random(12, rng));
      y.push_back(util::WideWord::random(12, rng));
      util::WideWord z = x.back();
      z.bxor(y.back());
      xy.push_back(z);
    }
    util::WideWord expect = m.signature(x);
    expect.bxor(m.signature(y));
    EXPECT_EQ(m.signature(xy), expect) << "trial " << trial;
  }
}

TEST(Misr, SingleBitResponseChangePerturbsSignature) {
  // Flipping the last response word always changes the signature (no
  // later cycles to alias it away).
  Misr m(10);
  util::Rng rng(11);
  std::vector<util::WideWord> stream;
  for (int i = 0; i < 30; ++i) stream.push_back(util::WideWord::random(10, rng));
  const auto base = m.signature(stream);
  stream.back().set_bit(3, !stream.back().get_bit(3));
  EXPECT_NE(m.signature(stream), base);
}

TEST(GoldenSignature, MatchesManualComposition) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  util::Rng rng(5);
  const auto ps = sim::PatternSet::random(5, 20, rng);
  const Misr misr(nl.num_outputs());
  const auto resp = golden_responses(cc, ps);
  ASSERT_EQ(resp.size(), 20u);
  EXPECT_EQ(golden_signature(cc, ps, misr), misr.signature(resp));
}

TEST(Aliasing, DetectedFaultsMostlyVisibleInSignature) {
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  sim::FaultSim fsim(cc, fl);
  util::Rng rng(9);
  const auto ps = sim::PatternSet::random(5, 64, rng);
  const auto r = fsim.run(ps);

  std::vector<std::size_t> detected;
  r.detected.for_each_set([&](std::size_t f) { detected.push_back(f); });
  ASSERT_FALSE(detected.empty());

  const Misr misr(nl.num_outputs());  // 2-bit MISR: aliasing plausible
  const auto aliased = aliased_faults(cc, fl, detected, ps, misr);
  // Theory bound ~2^-w per fault; with w=2 some aliasing may occur, but
  // never the majority.
  EXPECT_LT(aliased.size(), detected.size() / 2 + 1);
}

TEST(Aliasing, UndetectedFaultNeverReported) {
  // A fault not observable at the outputs cannot be "aliased" — it is
  // simply undetected; aliased_faults must skip it.
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto na = nl.add_gate(netlist::GateType::kNot, "na", {a});
  const auto y = nl.add_gate(netlist::GateType::kOr, "y", {a, na});
  const auto out = nl.add_gate(netlist::GateType::kBuf, "out", {y});
  nl.mark_output(out);
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  const auto fl = fault::FaultList::full(cc);
  const std::size_t fid = fl.find(fault::Fault{y, true});  // redundant
  ASSERT_NE(fid, static_cast<std::size_t>(-1));

  util::Rng rng(2);
  const auto ps = sim::PatternSet::random(1, 8, rng);
  const Misr misr(1);
  EXPECT_TRUE(aliased_faults(cc, fl, {fid}, ps, misr).empty());
}

TEST(Aliasing, WideMisrEliminatesAliasingOnC17) {
  // c17 has 2 POs, so a 2-bit MISR aliases ~25% of detected faults.
  // Widening the register (responses zero-extended) drops the aliasing
  // probability to ~2^-16 — zero on this sample.
  const auto nl = circuits::make_c17();
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  sim::FaultSim fsim(cc, fl);
  util::Rng rng(21);
  const auto ps = sim::PatternSet::random(5, 128, rng);
  const auto r = fsim.run(ps);
  std::vector<std::size_t> detected;
  r.detected.for_each_set([&](std::size_t f) { detected.push_back(f); });

  const Misr narrow(nl.num_outputs());
  const Misr wide(16);
  const auto aliased_narrow = aliased_faults(cc, fl, detected, ps, narrow);
  const auto aliased_wide = aliased_faults(cc, fl, detected, ps, wide);
  EXPECT_LE(aliased_wide.size(), aliased_narrow.size());
  EXPECT_TRUE(aliased_wide.empty());
}

// The aliased fault ids of c432 and c880 over 64 seeded patterns,
// recorded before aliased_faults moved onto the compiled schedule.  Each
// circuit is pinned under a register as wide as its PO vector (the
// narrowest Misr::step accepts: c432 has 7 outputs, c880 26), once with
// the default taps and once with the single tap {0}, which drops the top
// bit every clock, so errors that reach only the high bits early alias
// and the lists are long.
TEST(Aliasing, ListPinned) {
  struct Case {
    const char* circuit;
    bool single_tap;
    std::vector<std::size_t> aliased;
  };
  const std::vector<Case> cases = {
      {"c432", false, {86, 200, 357, 372}},
      {"c432", true,
       {6,   11,  14,  22,  24,  25,  26,  28,  30,  35,  40,  45,  47,  53,
        61,  65,  66,  69,  75,  82,  83,  84,  87,  90,  95,  103, 105, 108,
        119, 124, 125, 130, 132, 140, 144, 150, 159, 176, 181, 186, 198, 201,
        208, 210, 216, 218, 228, 237, 252, 253, 259, 283, 286, 287, 295, 297,
        304, 306, 312, 321, 322, 329, 338, 340, 352, 355, 359, 370, 373, 388,
        395, 402}},
      {"c880", false, {}},
      {"c880", true,
       {6,   22,  32,  36,  38,  50,  51,  66,  70,  71,  112, 115, 118, 119,
        120, 128, 137, 141, 168, 169, 181, 185, 186, 194, 224, 232, 235, 240,
        253, 256, 269, 276, 283, 285, 299, 317, 322, 326, 333, 336, 344, 347,
        349, 351, 372, 377, 387, 389, 393, 447, 453, 468, 502, 515, 524, 525,
        531, 535, 549, 560, 581, 597, 604, 611, 615, 617, 621, 648, 656, 669,
        670, 676, 683, 687, 690, 698, 708, 715, 729, 730, 732, 733, 736, 738,
        747, 750, 758, 760, 762, 764, 792, 796, 825, 836, 839, 850, 852, 854,
        855, 887, 892, 898, 905, 908}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.circuit) + (c.single_tap ? "/tap0" : "/default"));
    const auto nl = circuits::make_circuit(c.circuit);
    const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
    const auto fl = fault::FaultList::collapsed(cc);
    std::vector<std::size_t> ids(fl.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    util::Rng rng(30);
    const auto ps = sim::PatternSet::random(nl.num_inputs(), 64, rng);
    const Misr misr = c.single_tap ? Misr(nl.num_outputs(), {0})
                                   : Misr(nl.num_outputs());
    EXPECT_EQ(aliased_faults(cc, fl, ids, ps, misr), c.aliased);
  }
}

TEST(Misr, NarrowResponseZeroExtended) {
  Misr m(8);
  const util::WideWord state(8, 0);
  const util::WideWord resp(3, 0b101);
  const auto next = m.step(state, resp);
  EXPECT_EQ(next, util::WideWord(8, 0b101));
  // Response wider than the register is rejected.
  EXPECT_THROW(m.step(state, util::WideWord(9)), std::invalid_argument);
}

}  // namespace
}  // namespace fbist::bist
