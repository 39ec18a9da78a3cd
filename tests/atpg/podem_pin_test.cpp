// Pins PODEM's search fault by fault.
//
// For each (circuit, backtrack budget) pair, every fault's status,
// decision and backtrack counts, pattern and care bits are folded into
// one FNV-1a digest.  Five-valued implication is a pure function of the
// primary-input assignment, so how PODEM implies (full passes or event
// waves, re-implication or trail undo) must never move these digests:
// the search must see the same values and make the same decisions.
// Budget 600 (the default) lets untestable faults exhaust the decision
// stack; budget 5 makes many searches abort; budget 20 is
// kPodemFirstTry, the budget run_atpg tries first.  c1355 is
// XOR-heavy, so its digests pin the XOR/XNOR implication rules.
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "atpg/podem.h"
#include "circuits/registry.h"
#include "util/rng.h"

namespace fbist::atpg {
namespace {

struct PinCase {
  const char* circuit;
  bool full_list;  // uncollapsed list (c17: includes PI fault sites)
  std::size_t backtrack_limit;
  std::uint64_t digest;
};

std::ostream& operator<<(std::ostream& os, const PinCase& c) {
  return os << c.circuit << (c.full_list ? "/full" : "/collapsed") << "/"
            << c.backtrack_limit;
}

fault::FaultList fault_list(const netlist::CompiledCircuit& cc, bool full) {
  return full ? fault::FaultList::full(cc) : fault::FaultList::collapsed(cc);
}

std::uint64_t search_digest(const netlist::CompiledCircuit& cc,
                            const fault::FaultList& fl, std::size_t limit) {
  PodemOptions opts;
  opts.backtrack_limit = limit;
  Podem podem(cc, opts);
  std::string record;
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const PodemResult r = podem.generate(fl[fid]);
    record += std::to_string(static_cast<int>(r.status)) + ' ' +
              std::to_string(r.decisions) + ' ' +
              std::to_string(r.backtracks) + ' ' + r.pattern.to_hex() + ' ' +
              r.care.to_hex() + '\n';
  }
  return util::hash_string(record);
}

class PodemPinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(PodemPinTest, SearchMatchesRecordedDigest) {
  const PinCase& c = GetParam();
  const auto nl = circuits::make_circuit(c.circuit);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault_list(cc, c.full_list);
  const std::uint64_t got = search_digest(cc, fl, c.backtrack_limit);
  EXPECT_EQ(got, c.digest) << c << ": got 0x" << std::hex << got;
}

constexpr PinCase kPinCases[] = {
    {"c17", true, 600, 0x888fe06c94d3bbe6},
    {"c17", true, 5, 0x888fe06c94d3bbe6},
    {"c432", false, 600, 0x81512e5de94911c6},
    {"c432", false, 5, 0x6f99a7e760357871},
    {"c432", false, 20, 0x5ba24ff56a51aa77},
    {"c499", false, 600, 0x977fda32acf478b1},
    {"c499", false, 5, 0x7dde50fb1aa36c98},
    {"c880", false, 600, 0xf6527844e288655d},
    {"c880", false, 5, 0xd8bf22de0c91c955},
    {"c1908", false, 600, 0x0dba832e835734e9},
    {"c1908", false, 5, 0x681aaf6b8b33428a},
    {"c1908", false, 20, 0xd08a27a0b643bc1c},
    {"c1355", false, 600, 0xac0e161a6c900c52},
    {"c1355", false, 20, 0x7d5e1e8f11d771d0},
    {"s1423", false, 600, 0xb8782d5585bcef32},
    {"s1423", false, 20, 0xa12753e70b307232},
    {"s1238", false, 600, 0x5dec55c1505804b6},
    {"s1238", false, 5, 0x25ea473f3c978d95},
};

INSTANTIATE_TEST_SUITE_P(
    Registry, PodemPinTest, ::testing::ValuesIn(kPinCases),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.circuit) +
             (info.param.full_list ? "_full_" : "_") +
             std::to_string(info.param.backtrack_limit);
    });

// One engine reused across faults in reverse order must answer every
// fault exactly like a fresh engine: no trail, queue or value state may
// leak from one fault to the next.
TEST(PodemPin, ResultIndependentOfFaultOrder) {
  const auto nl = circuits::make_circuit("c1908");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  Podem reused(cc);
  for (std::size_t fid = fl.size(); fid-- > 0;) {
    const PodemResult a = reused.generate(fl[fid]);
    const PodemResult b = Podem(cc).generate(fl[fid]);
    SCOPED_TRACE(fault_name(nl, fl[fid]));
    ASSERT_EQ(a.status, b.status);
    ASSERT_EQ(a.decisions, b.decisions);
    ASSERT_EQ(a.backtracks, b.backtracks);
    ASSERT_EQ(a.pattern, b.pattern);
    ASSERT_EQ(a.care, b.care);
  }
}

// A smaller budget only stops the same search earlier: whenever a call
// at budget b does not abort, it returns exactly what the default
// budget returns.  run_atpg's short first try relies on this.
TEST(PodemPin, SmallerBudgetIsPrefix) {
  for (const char* name : {"c432", "c1908", "s1238"}) {
    SCOPED_TRACE(name);
    const auto nl = circuits::make_circuit(name);
    const netlist::CompiledCircuit cc(nl);
    const auto fl = fault::FaultList::collapsed(cc);
    const PodemOptions opts;
    ASSERT_EQ(opts.backtrack_limit, 600u);
    Podem podem(cc, opts);
    std::size_t settled_early = 0;
    for (std::size_t fid = 0; fid < fl.size(); ++fid) {
      SCOPED_TRACE(fault_name(nl, fl[fid]));
      const PodemResult full = podem.generate(fl[fid], 600);
      const PodemResult dflt = podem.generate(fl[fid]);
      ASSERT_EQ(dflt.status, full.status);
      ASSERT_EQ(dflt.decisions, full.decisions);
      ASSERT_EQ(dflt.backtracks, full.backtracks);
      ASSERT_EQ(dflt.pattern, full.pattern);
      ASSERT_EQ(dflt.care, full.care);
      for (const std::size_t b : {0u, 5u, 20u}) {
        SCOPED_TRACE(b);
        const PodemResult r = podem.generate(fl[fid], b);
        if (r.status == PodemStatus::kAborted) {
          ASSERT_EQ(r.backtracks, b + 1);
          continue;
        }
        ++settled_early;
        ASSERT_EQ(r.status, full.status);
        ASSERT_EQ(r.decisions, full.decisions);
        ASSERT_EQ(r.backtracks, full.backtracks);
        ASSERT_EQ(r.pattern, full.pattern);
        ASSERT_EQ(r.care, full.care);
      }
    }
    EXPECT_GT(settled_early, 0u);
  }
}

}  // namespace
}  // namespace fbist::atpg
