#include "reseed/initial_builder.h"

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "campaign/scheduler.h"
#include "circuits/registry.h"
#include "reseed/serialize.h"
#include "sim/reference_sim.h"
#include "tpg/accumulator.h"
#include "tpg/expand_oracle.h"
#include "tpg/triplet.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace fbist::reseed {
namespace {

struct Fixture {
  netlist::Netlist nl = circuits::make_c17();
  netlist::CompiledCircuit cc{nl};
  fault::FaultList fl = fault::FaultList::full(cc);
  sim::FaultSim fsim{cc, fl};
  atpg::AtpgResult atpg = atpg::run_atpg(cc, fl);
};

TEST(InitialBuilder, OneTripletPerAtpgPattern) {
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  const InitialReseeding init =
      build_initial_reseeding(f.fsim, tpg, f.atpg.patterns);
  EXPECT_EQ(init.triplets.size(), f.atpg.patterns.size());
  EXPECT_EQ(init.matrix.num_rows(), f.atpg.patterns.size());
  EXPECT_EQ(init.matrix.num_cols(), f.fl.size());
}

TEST(InitialBuilder, DeltaEqualsAtpgPattern) {
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  const InitialReseeding init =
      build_initial_reseeding(f.fsim, tpg, f.atpg.patterns);
  for (std::size_t i = 0; i < init.triplets.size(); ++i) {
    EXPECT_EQ(init.triplets[i].delta, f.atpg.patterns.pattern(i));
  }
}

TEST(InitialBuilder, CyclesAppliedUniformly) {
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  BuilderOptions opts;
  opts.cycles_per_triplet = 17;
  const InitialReseeding init =
      build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, opts);
  for (const auto& t : init.triplets) EXPECT_EQ(t.cycles, 17u);
}

TEST(InitialBuilder, RowsMatchDirectFaultSim) {
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  BuilderOptions opts;
  opts.cycles_per_triplet = 8;
  const InitialReseeding init =
      build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, opts);
  for (std::size_t i = 0; i < init.triplets.size(); ++i) {
    const auto ts = tpg::expand_triplet(tpg, init.triplets[i]);
    const auto direct = f.fsim.run(ts);
    EXPECT_EQ(init.matrix.row(i), direct.detected) << "triplet " << i;
  }
}

TEST(InitialBuilder, CompleteByConstructionOnDetectedFaults) {
  // Every ATPG-detected fault must be covered by some candidate: the
  // first pattern of TS_i is p_i itself.  c17 has full coverage, so no
  // column may be uncoverable.
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  const InitialReseeding init =
      build_initial_reseeding(f.fsim, tpg, f.atpg.patterns);
  EXPECT_TRUE(init.matrix.all_columns_coverable());
}

TEST(InitialBuilder, LongerEvolutionCoversAtLeastAsMuchPerRow) {
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  BuilderOptions short_opts, long_opts;
  short_opts.cycles_per_triplet = 1;
  long_opts.cycles_per_triplet = 32;
  short_opts.seed = long_opts.seed = 5;
  short_opts.shared_sigma = long_opts.shared_sigma = true;
  const auto a = build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, short_opts);
  const auto b = build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, long_opts);
  for (std::size_t i = 0; i < a.triplets.size(); ++i) {
    EXPECT_TRUE(a.matrix.row(i).is_subset_of(b.matrix.row(i))) << i;
  }
}

TEST(InitialBuilder, EarliestIndicesAttachedAndConsistent) {
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  BuilderOptions opts;
  opts.cycles_per_triplet = 16;
  const InitialReseeding init =
      build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, opts);
  ASSERT_TRUE(init.matrix.has_earliest());
  for (std::size_t r = 0; r < init.matrix.num_rows(); ++r) {
    for (std::size_t c = 0; c < init.matrix.num_cols(); ++c) {
      if (init.matrix.get(r, c)) {
        EXPECT_LT(init.matrix.earliest(r, c), opts.cycles_per_triplet);
      } else {
        EXPECT_EQ(init.matrix.earliest(r, c), sim::kNotDetected);
      }
    }
  }
}

TEST(InitialBuilder, DeterministicGivenSeed) {
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  BuilderOptions opts;
  opts.seed = 99;
  const auto a = build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, opts);
  const auto b = build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, opts);
  for (std::size_t i = 0; i < a.triplets.size(); ++i) {
    EXPECT_EQ(a.triplets[i].sigma, b.triplets[i].sigma);
    EXPECT_EQ(a.matrix.row(i), b.matrix.row(i));
  }
}

// The staged, lane-packed detection-matrix build must stay
// bit-identical to an independent oracle — the seed reference simulator
// run on each candidate's whole test set, expanded pattern by pattern
// (tpg/expand_oracle.h) — in detection bits *and* earliest indices.
// The T values cover one-stage builds (T <= 64), a one-pattern second
// stage (65), doubling stages that end on and off a power of two (128,
// 200) and five stages (1024), on every TPG kind.  s838's 67 inputs
// span two words per pattern, so every tile row does too.
TEST(InitialBuilder, BatchedMatrixMatchesPerRowSeedPath) {
  const struct {
    const char* circuit;
    std::vector<std::size_t> cycles;
  } cases[] = {
      {"c432", {1, 7, 64, 65, 128, 200, 1024}},
      {"s838", {7, 65, 200}},
  };
  for (const auto& c : cases) {
    const netlist::Netlist nl = circuits::make_circuit(c.circuit);
    const netlist::CompiledCircuit cc(nl);
    const fault::FaultList fl = fault::FaultList::collapsed(cc);
    const sim::FaultSim fsim(cc, fl);
    const sim::ReferenceFaultSim ref(nl, fl);
    const atpg::AtpgResult atpg = atpg::run_atpg(cc, fl);
    for (const tpg::TpgKind kind :
         {tpg::TpgKind::kAdder, tpg::TpgKind::kSubtracter,
          tpg::TpgKind::kMultiplier, tpg::TpgKind::kLfsr}) {
      const auto tpg = tpg::make_tpg(kind, nl.num_inputs());
      for (const std::size_t cycles : c.cycles) {
        SCOPED_TRACE(std::string(c.circuit) + " " + tpg::tpg_kind_name(kind) +
                     " T=" + std::to_string(cycles));
        BuilderOptions opts;
        opts.cycles_per_triplet = cycles;
        const InitialReseeding init =
            build_initial_reseeding(fsim, *tpg, atpg.patterns, opts);
        ASSERT_TRUE(init.matrix.has_earliest());
        for (std::size_t i = 0; i < init.triplets.size(); ++i) {
          const auto want =
              ref.run(tpg::oracle_expand(*tpg, init.triplets[i]),
                      /*parallel=*/false);
          EXPECT_EQ(init.matrix.row(i), want.detected) << "row " << i;
          for (std::size_t f = 0; f < init.matrix.num_cols(); ++f) {
            ASSERT_EQ(init.matrix.earliest(i, f), want.earliest[f])
                << "row " << i << " fault " << f;
          }
        }
      }
    }
  }
}

TEST(InitialBuilder, BatchedMatrixBitIdenticalAcrossWorkerCounts) {
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  for (const std::size_t cycles : {7, 200}) {
    BuilderOptions opts;
    opts.cycles_per_triplet = cycles;
    campaign::Scheduler::global().set_workers(1);
    const auto one = build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, opts);
    campaign::Scheduler::global().set_workers(4);
    const auto four = build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, opts);
    campaign::Scheduler::global().set_workers(0);  // restore default
    for (std::size_t i = 0; i < one.triplets.size(); ++i) {
      EXPECT_EQ(one.matrix.row(i), four.matrix.row(i)) << "T=" << cycles << " " << i;
      for (std::size_t c = 0; c < one.matrix.num_cols(); ++c) {
        ASSERT_EQ(one.matrix.earliest(i, c), four.matrix.earliest(i, c))
            << "T=" << cycles;
      }
    }
  }
}

/// First difference between two initial reseedings in triplets (delta,
/// sigma, cycles), row bits or earliest indices; empty when equal.
std::string first_difference(const InitialReseeding& a,
                             const InitialReseeding& b) {
  if (a.triplets.size() != b.triplets.size()) return "triplet count";
  if (a.matrix.num_rows() != b.matrix.num_rows() ||
      a.matrix.num_cols() != b.matrix.num_cols()) {
    return "matrix shape";
  }
  if (!a.matrix.has_earliest() || !b.matrix.has_earliest()) {
    return "earliest indices missing";
  }
  for (std::size_t r = 0; r < a.triplets.size(); ++r) {
    const tpg::Triplet& ta = a.triplets[r];
    const tpg::Triplet& tb = b.triplets[r];
    if (ta.delta != tb.delta || ta.sigma != tb.sigma ||
        ta.cycles != tb.cycles) {
      return "triplet " + std::to_string(r);
    }
    if (a.matrix.row(r) != b.matrix.row(r)) {
      return "bits of row " + std::to_string(r);
    }
    for (std::size_t c = 0; c < a.matrix.num_cols(); ++c) {
      if (a.matrix.earliest(r, c) != b.matrix.earliest(r, c)) {
        return "earliest of row " + std::to_string(r) + " fault " +
               std::to_string(c);
      }
    }
  }
  return "";
}

// One build at the largest T answers every smaller T: thresholding it
// at T (cells whose earliest detection is below T, same indices) must
// equal a fresh build at T in triplets, bits and earliest indices.  The
// T values cover one-stage builds (<= 64), a one-pattern second stage
// (65), stages ending off (100) and on (128, 256) a power of two, and
// the family's own T.  s838's 67 inputs span two words per row.
TEST(InitialBuilder, AtCyclesEqualsFreshBuild) {
  constexpr std::size_t kFamilyT = 256;
  for (const char* circuit : {"c432", "s838", "c1908"}) {
    const netlist::Netlist nl = circuits::make_circuit(circuit);
    const netlist::CompiledCircuit cc(nl);
    const fault::FaultList fl = fault::FaultList::collapsed(cc);
    const sim::FaultSim fsim(cc, fl);
    const atpg::AtpgResult atpg = atpg::run_atpg(cc, fl);
    for (const tpg::TpgKind kind : {tpg::TpgKind::kAdder, tpg::TpgKind::kLfsr,
                                    tpg::TpgKind::kMultiplier}) {
      const auto tpg = tpg::make_tpg(kind, nl.num_inputs());
      for (const bool shared_sigma : {false, true}) {
        BuilderOptions opts;
        opts.shared_sigma = shared_sigma;
        opts.cycles_per_triplet = kFamilyT;
        const InitialReseeding family =
            build_initial_reseeding(fsim, *tpg, atpg.patterns, opts);
        for (const std::size_t cycles : {1, 4, 32, 64, 65, 100, 128, 256}) {
          SCOPED_TRACE(std::string(circuit) + " " + tpg::tpg_kind_name(kind) +
                       (shared_sigma ? " shared" : " per-row") +
                       " sigma T=" + std::to_string(cycles));
          opts.cycles_per_triplet = cycles;
          const InitialReseeding fresh =
              build_initial_reseeding(fsim, *tpg, atpg.patterns, opts);
          EXPECT_EQ(first_difference(at_cycles(family, cycles), fresh), "");
        }
        EXPECT_THROW(at_cycles(family, kFamilyT + 1), std::invalid_argument);
      }
    }
  }
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  InitialReseeding bare = build_initial_reseeding(f.fsim, tpg, f.atpg.patterns);
  bare.matrix = cover::DetectionMatrix(bare.matrix.num_rows(),
                                       bare.matrix.num_cols());
  EXPECT_THROW(at_cycles(bare, 1), std::invalid_argument);
}

// The largest T a matrix holds: a T = 65535 family on c432 thresholds
// to itself and round-trips through the fbist-dmx codec, and one more
// cycle per triplet is rejected with T and the limit in the message.
TEST(InitialBuilder, CyclesLimit) {
  const netlist::Netlist nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const fault::FaultList fl = fault::FaultList::collapsed(cc);
  const sim::FaultSim fsim(cc, fl);
  const atpg::AtpgResult atpg = atpg::run_atpg(cc, fl);
  const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder, nl.num_inputs());
  BuilderOptions opts;
  opts.cycles_per_triplet = cover::DetectionMatrix::kMaxCycles;
  const InitialReseeding family =
      build_initial_reseeding(fsim, *tpg, atpg.patterns, opts);
  EXPECT_EQ(first_difference(at_cycles(family, opts.cycles_per_triplet), family),
            "");
  InitialReseeding reread;
  reread.triplets = family.triplets;
  reread.matrix = matrix_from_string(matrix_to_string(family.matrix));
  EXPECT_EQ(first_difference(reread, family), "");

  opts.cycles_per_triplet = cover::DetectionMatrix::kMaxCycles + 1;
  try {
    build_initial_reseeding(fsim, *tpg, atpg.patterns, opts);
    FAIL() << "T = 65536 accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("65536"), std::string::npos) << msg;
    EXPECT_NE(msg.find("65535"), std::string::npos) << msg;
  }
}

TEST(InitialBuilder, SharedSigmaUsesOneValue) {
  Fixture f;
  tpg::AdderTpg tpg(f.nl.num_inputs());
  BuilderOptions opts;
  opts.shared_sigma = true;
  const auto init = build_initial_reseeding(f.fsim, tpg, f.atpg.patterns, opts);
  for (std::size_t i = 1; i < init.triplets.size(); ++i) {
    EXPECT_EQ(init.triplets[i].sigma, init.triplets[0].sigma);
  }
}

// A packing that throws, on a pool worker or on the caller, reaches the
// build's caller: builder.pack fires once, the build throws that
// InjectedError, and the next build (the failpoint spent) returns what
// an unarmed build returns.  640 candidates at T = 64 pack into 40
// one-chunk packings, so the stage runs on the 4-worker pool.
TEST(InitialBuilder, InjectedPackFailureReachesTheCallerOnce) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const netlist::Netlist nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const fault::FaultList fl = fault::FaultList::collapsed(cc);
  const sim::FaultSim fsim(cc, fl);
  util::Rng rng(3);
  const sim::PatternSet candidates =
      sim::PatternSet::random(nl.num_inputs(), 640, rng);
  const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder, nl.num_inputs());
  BuilderOptions opts;
  opts.cycles_per_triplet = 64;
  campaign::Scheduler::global().set_workers(4);
  const InitialReseeding want =
      build_initial_reseeding(fsim, *tpg, candidates, opts);
  util::failpoint::configure("builder.pack=perm(1,0,1)");
  EXPECT_THROW(build_initial_reseeding(fsim, *tpg, candidates, opts),
               util::failpoint::InjectedError);
  const InitialReseeding got =
      build_initial_reseeding(fsim, *tpg, candidates, opts);
  EXPECT_EQ(util::failpoint::fires("builder.pack"), 1u);
  util::failpoint::clear();
  campaign::Scheduler::global().set_workers(0);  // restore default
  ASSERT_EQ(got.matrix.num_rows(), want.matrix.num_rows());
  for (std::size_t i = 0; i < want.matrix.num_rows(); ++i) {
    EXPECT_EQ(got.matrix.row(i), want.matrix.row(i)) << "row " << i;
    for (std::size_t c = 0; c < want.matrix.num_cols(); ++c) {
      ASSERT_EQ(got.matrix.earliest(i, c), want.matrix.earliest(i, c))
          << "row " << i;
    }
  }
}

}  // namespace
}  // namespace fbist::reseed
