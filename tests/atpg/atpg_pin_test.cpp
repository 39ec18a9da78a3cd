// Pins run_atpg's output circuit by circuit.
//
// For each case the compacted pattern set (pattern by pattern, in
// order), every fault's verdict and five tallies of AtpgResult are
// folded into one FNV-1a digest.  How the driver keeps its fault state,
// drops faults, schedules its fault-simulation campaigns or decides
// which engine settles a hard fault must never move these digests: the
// random phase, the PODEM/SAT phase and reverse-order compaction must
// keep the same patterns and settle the same verdicts.  The sixth
// tally, sat_redundant_faults, says which engine certified a
// redundancy, not what the result is, so it is pinned on its own.  The
// abort-path cases turn SAT escalation off and give PODEM a budget of
// 5, so many faults end kAborted.
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "campaign/scheduler.h"
#include "circuits/registry.h"
#include "util/rng.h"

namespace fbist::atpg {
namespace {

struct PinCase {
  const char* circuit;
  bool full_list;  // uncollapsed list (c17: includes PI fault sites)
  bool sat_escalate;
  std::size_t backtrack_limit;
  std::uint64_t digest;
  std::size_t sat_redundant;  // AtpgResult::sat_redundant_faults
};

std::ostream& operator<<(std::ostream& os, const PinCase& c) {
  return os << c.circuit << (c.full_list ? "/full" : "/collapsed")
            << (c.sat_escalate ? "/sat" : "/nosat") << "/"
            << c.backtrack_limit;
}

fault::FaultList fault_list(const netlist::CompiledCircuit& cc, bool full) {
  return full ? fault::FaultList::full(cc) : fault::FaultList::collapsed(cc);
}

/// Everything an AtpgResult holds but sat_redundant_faults, as text:
/// one line per pattern, one verdict digit per fault, then the tallies.
std::string record(const AtpgResult& r) {
  std::string s;
  for (std::size_t p = 0; p < r.patterns.size(); ++p) {
    s += r.patterns.pattern(p).to_hex() + '\n';
  }
  for (const FaultVerdict v : r.verdict) {
    s += static_cast<char>('0' + static_cast<int>(v));
  }
  s += '\n';
  for (const std::size_t t :
       {r.random_patterns_used, r.deterministic_patterns, r.redundant_faults,
        r.aborted_faults, r.sat_detected_faults}) {
    s += std::to_string(t) + ' ';
  }
  return s;
}

class AtpgPinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(AtpgPinTest, ResultMatchesRecordedDigest) {
  const PinCase& c = GetParam();
  const auto nl = circuits::make_circuit(c.circuit);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault_list(cc, c.full_list);
  AtpgOptions opts;
  opts.sat_escalate = c.sat_escalate;
  opts.podem.backtrack_limit = c.backtrack_limit;
  const AtpgResult r = run_atpg(cc, fl, opts);
  const std::uint64_t got = util::hash_string(record(r));
  EXPECT_EQ(got, c.digest) << c << ": got 0x" << std::hex << got;
  EXPECT_EQ(r.sat_redundant_faults, c.sat_redundant) << c;
}

constexpr PinCase kPinCases[] = {
    {"c17", true, true, 600, 0x21bc7cbcb3cfdc3d, 0},
    {"c432", false, true, 600, 0xc630b83dd42a2988, 23},
    {"c499", false, true, 600, 0x273607fef205ab50, 46},
    {"c880", false, true, 600, 0x7354bb14fd9ee105, 66},
    {"c1908", false, true, 600, 0x724593cc538a6b89, 84},
    {"s641", false, true, 600, 0x0efd4d77694a24b4, 54},
    {"s1238", false, true, 600, 0x79db2239f1a8f862, 35},
    {"c432", false, false, 5, 0xd738169847a22770, 0},
    {"c1908", false, false, 5, 0xd32c0a9bf1c820f3, 0},
};

INSTANTIATE_TEST_SUITE_P(
    Registry, AtpgPinTest, ::testing::ValuesIn(kPinCases),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.circuit) +
             (info.param.full_list ? "_full" : "") +
             (info.param.sat_escalate ? "" : "_nosat") + "_" +
             std::to_string(info.param.backtrack_limit);
    });

// Reverse-order compaction keeps a pattern only for a detected fault
// that no later kept pattern detects, and drops no detected fault.
TEST(AtpgPin, CompactedSetIsReverseOrderIrredundant) {
  for (const char* name : {"c432", "c880", "s1238"}) {
    SCOPED_TRACE(name);
    const auto nl = circuits::make_circuit(name);
    const netlist::CompiledCircuit cc(nl);
    const auto fl = fault::FaultList::collapsed(cc);
    const AtpgResult r = run_atpg(cc, fl);
    ASSERT_GT(r.patterns.size(), 1u);
    util::BitVector detected(fl.size());
    for (std::size_t fid = 0; fid < fl.size(); ++fid) {
      if (r.verdict[fid] == FaultVerdict::kDetected) detected.set(fid);
    }
    sim::FaultSim fsim(cc, fl);
    util::BitVector later(fl.size());  // detected by some later kept pattern
    for (std::size_t p = r.patterns.size(); p-- > 0;) {
      sim::PatternSet one(nl.num_inputs(), 0);
      one.append(r.patterns.pattern(p));
      util::BitVector hits = fsim.run(one).detected;
      hits &= detected;
      EXPECT_FALSE(hits.is_subset_of(later))
          << "kept pattern " << p << " is redundant";
      later |= hits;
    }
    EXPECT_TRUE(detected.is_subset_of(later));
  }
}

// Fault simulation inside run_atpg splits its site loops across the
// calling pool's workers; the result must not depend on how many.
TEST(AtpgPin, ResultIndependentOfWorkerCount) {
  const auto nl = circuits::make_circuit("s1238");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  auto run_on_pool = [&](std::size_t workers) {
    campaign::Scheduler sched(workers);
    campaign::TaskGroup group(sched);
    std::string out;
    group.run([&] { out = record(run_atpg(cc, fl)); });
    group.wait();
    return out;
  };
  const std::string one = run_on_pool(1);
  const std::string four = run_on_pool(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace fbist::atpg
