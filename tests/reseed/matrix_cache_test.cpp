// MatrixCache: content-key sensitivity (any input divergence must
// miss), the on-disk store, and hit/build result identity through
// build_initial_reseeding.
#include "reseed/matrix_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "circuits/registry.h"
#include "fault/fault.h"
#include "reseed/initial_builder.h"
#include "sim/fault_sim.h"
#include "tpg/lfsr.h"
#include "util/rng.h"

namespace fbist::reseed {
namespace {

namespace fs = std::filesystem;

struct KeyFixture {
  netlist::Netlist nl = circuits::make_circuit("c17");
  netlist::CompiledCircuit cc{nl};
  fault::FaultList faults = fault::FaultList::collapsed(cc);
  std::unique_ptr<tpg::Tpg> tpg = tpg::make_tpg(tpg::TpgKind::kAdder,
                                                nl.num_inputs());
  std::vector<tpg::Triplet> candidates;

  KeyFixture() {
    util::Rng rng(3);
    for (int i = 0; i < 4; ++i) {
      tpg::Triplet t;
      t.delta = util::WideWord::random(nl.num_inputs(), rng);
      t.sigma = util::WideWord::random(nl.num_inputs(), rng);
      t.cycles = 8;
      candidates.push_back(std::move(t));
    }
  }

  MatrixCache::Key key() const {
    return MatrixCache::key(cc, faults, *tpg, candidates);
  }
};

TEST(MatrixCacheKey, DeterministicAcrossInstances) {
  KeyFixture a, b;
  EXPECT_EQ(a.key(), b.key());
}

TEST(MatrixCacheKey, SensitiveToCircuitStructure) {
  KeyFixture f;
  const auto base = f.key();
  const netlist::Netlist other_nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit other_cc(other_nl);
  EXPECT_NE(base, MatrixCache::key(other_cc, f.faults, *f.tpg, f.candidates));
}

TEST(MatrixCacheKey, SensitiveToFaultList) {
  KeyFixture f;
  const auto base = f.key();
  std::vector<bool> drop(f.faults.size(), false);
  drop[0] = true;
  const fault::FaultList fewer = f.faults.without(drop);
  EXPECT_NE(base, MatrixCache::key(f.cc, fewer, *f.tpg, f.candidates));
}

TEST(MatrixCacheKey, SensitiveToTpgKindAndConfig) {
  KeyFixture f;
  const auto base = f.key();
  // Different kind, same width.
  const auto sub = tpg::make_tpg(tpg::TpgKind::kSubtracter, f.nl.num_inputs());
  EXPECT_NE(base, MatrixCache::key(f.cc, f.faults, *sub, f.candidates));
  // Same kind (lfsr), different tap polynomial: config_string must
  // separate them even though name and width agree.
  const tpg::LfsrTpg lfsr_a(f.nl.num_inputs(), {0, 1});
  const tpg::LfsrTpg lfsr_b(f.nl.num_inputs(), {0, 2});
  EXPECT_NE(MatrixCache::key(f.cc, f.faults, lfsr_a, f.candidates),
            MatrixCache::key(f.cc, f.faults, lfsr_b, f.candidates));
}

TEST(MatrixCacheKey, SensitiveToCandidateTriplets) {
  KeyFixture f;
  const auto base = f.key();
  // One sigma bit.
  auto c1 = f.candidates;
  c1[2].sigma.set_bit(0, !c1[2].sigma.get_bit(0));
  EXPECT_NE(base, MatrixCache::key(f.cc, f.faults, *f.tpg, c1));
  // One T value.
  auto c2 = f.candidates;
  c2[0].cycles = 9;
  EXPECT_NE(base, MatrixCache::key(f.cc, f.faults, *f.tpg, c2));
  // Row order (rows are positional in the matrix).
  auto c3 = f.candidates;
  std::swap(c3[0], c3[1]);
  EXPECT_NE(base, MatrixCache::key(f.cc, f.faults, *f.tpg, c3));
  // Dropped row.
  auto c4 = f.candidates;
  c4.pop_back();
  EXPECT_NE(base, MatrixCache::key(f.cc, f.faults, *f.tpg, c4));
}

cover::DetectionMatrix tiny_matrix(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  cover::DetectionMatrix m(rows, 10);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < 10; ++c) {
      if (rng.next_below(2) == 0) m.set(r, c);
    }
  }
  return m;
}

/// A fresh cache directory under the test temp dir.
MatrixCacheOptions temp_dir_options(const std::string& name) {
  MatrixCacheOptions opts;
  opts.dir = ::testing::TempDir() + "fbist_mc_" + name;
  fs::remove_all(opts.dir);
  return opts;
}

TEST(MatrixCache, EmptyDirectoryThrows) {
  EXPECT_THROW(MatrixCache(MatrixCacheOptions{}), std::invalid_argument);
}

TEST(MatrixCache, DiskTierSurvivesNewInstance) {
  const MatrixCacheOptions opts = temp_dir_options("disk");
  const std::string& dir = opts.dir;
  const cover::DetectionMatrix m = tiny_matrix(4, 7);
  {
    MatrixCache writer(opts);
    EXPECT_FALSE(writer.lookup(7).has_value());
    writer.store(7, m);
    const auto st = writer.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.stores, 1u);
  }
  MatrixCache reader(opts);
  const auto back = reader.lookup(7);
  ASSERT_TRUE(back.has_value());
  for (std::size_t r = 0; r < m.num_rows(); ++r) {
    EXPECT_EQ(back->row(r), m.row(r));
  }
  const auto st = reader.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 0u);

  EXPECT_EQ(MatrixCache::list_dir(dir).size(), 1u);
  EXPECT_EQ(MatrixCache::list_dir(dir)[0].key, 7u);
  EXPECT_TRUE(MatrixCache::evict_file(dir, 7));
  EXPECT_FALSE(MatrixCache::evict_file(dir, 7));
  EXPECT_TRUE(MatrixCache::list_dir(dir).empty());
  fs::remove_all(dir);
}

TEST(MatrixCache, CorruptOrFutureVersionDiskFilesMiss) {
  const std::string dir = ::testing::TempDir() + "fbist_mc_bad";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream f(dir + "/" + MatrixCache::key_hex(1) + ".dmx");
    f << "garbage\n";
  }
  {
    std::ofstream f(dir + "/" + MatrixCache::key_hex(2) + ".dmx");
    f << "fbist-dmx v9\ndims 1 1\nhas-earliest 0\nrow 0 0000000000000001\n";
  }
  MatrixCacheOptions opts;
  opts.dir = dir;
  MatrixCache cache(opts);
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  fs::remove_all(dir);
}

// End to end: a cached build must equal a fresh build exactly — matrix
// bits, earliest indices and triplets — and the hit must skip the
// simulator (observable through the stats).
TEST(MatrixCache, CachedBuildIdenticalToFreshBuild) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const fault::FaultList fl = fault::FaultList::collapsed(cc);
  const sim::FaultSim fsim(cc, fl);
  const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder, nl.num_inputs());
  util::Rng rng(11);
  const sim::PatternSet atpg = sim::PatternSet::random(nl.num_inputs(), 20, rng);
  BuilderOptions bopts;
  bopts.cycles_per_triplet = 6;

  const MatrixCacheOptions opts = temp_dir_options("identity");
  MatrixCache cache(opts);
  const InitialReseeding fresh =
      build_initial_reseeding(fsim, *tpg, atpg, bopts, &cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);

  const InitialReseeding cached =
      build_initial_reseeding(fsim, *tpg, atpg, bopts, &cache);
  EXPECT_EQ(cache.stats().hits, 1u);

  const InitialReseeding plain = build_initial_reseeding(fsim, *tpg, atpg, bopts);

  for (const InitialReseeding* other : {&cached, &plain}) {
    ASSERT_EQ(other->triplets.size(), fresh.triplets.size());
    for (std::size_t i = 0; i < fresh.triplets.size(); ++i) {
      EXPECT_EQ(other->triplets[i].delta, fresh.triplets[i].delta);
      EXPECT_EQ(other->triplets[i].sigma, fresh.triplets[i].sigma);
      EXPECT_EQ(other->triplets[i].cycles, fresh.triplets[i].cycles);
    }
    ASSERT_EQ(other->matrix.num_rows(), fresh.matrix.num_rows());
    ASSERT_EQ(other->matrix.num_cols(), fresh.matrix.num_cols());
    ASSERT_TRUE(other->matrix.has_earliest());
    for (std::size_t r = 0; r < fresh.matrix.num_rows(); ++r) {
      EXPECT_EQ(other->matrix.row(r), fresh.matrix.row(r));
      for (std::size_t c = 0; c < fresh.matrix.num_cols(); ++c) {
        EXPECT_EQ(other->matrix.earliest(r, c), fresh.matrix.earliest(r, c));
      }
    }
  }
  fs::remove_all(opts.dir);
}

TEST(MatrixCache, BuilderOptionChangesMiss) {
  const auto nl = circuits::make_circuit("c17");
  const netlist::CompiledCircuit cc(nl);
  const fault::FaultList fl = fault::FaultList::collapsed(cc);
  const sim::FaultSim fsim(cc, fl);
  const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder, nl.num_inputs());
  util::Rng rng(13);
  const sim::PatternSet atpg = sim::PatternSet::random(nl.num_inputs(), 8, rng);

  const MatrixCacheOptions opts = temp_dir_options("options");
  MatrixCache cache(opts);
  BuilderOptions a;
  a.cycles_per_triplet = 4;
  build_initial_reseeding(fsim, *tpg, atpg, a, &cache);
  BuilderOptions b = a;
  b.seed ^= 0x9e37u;  // different sigma draws -> different candidates
  build_initial_reseeding(fsim, *tpg, atpg, b, &cache);
  BuilderOptions c = a;
  c.cycles_per_triplet = 5;
  build_initial_reseeding(fsim, *tpg, atpg, c, &cache);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  fs::remove_all(opts.dir);
}

}  // namespace
}  // namespace fbist::reseed
