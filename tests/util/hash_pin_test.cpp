// Pins of every hash the library folds through util::Fnv1a and
// util::splitmix64, recorded before the FNV-1a and splitmix64 copies in
// src/ were folded into one: a checkpoint directory, a matrix-cache
// directory and a failpoint spec from before keep their meaning.
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "campaign/checkpoint.h"
#include "reseed/matrix_cache.h"
#include "reseed/pipeline.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace fbist {
namespace {

namespace fs = std::filesystem;

TEST(HashPin, HashString) {
  EXPECT_EQ(util::hash_string("c432"), 0x6eadc791e24dcd73ull);
}

TEST(HashPin, SpecHashOfASixteenRunSpec) {
  campaign::CampaignSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.tpgs = {tpg::TpgKind::kAdder, tpg::TpgKind::kLfsr};
  spec.cycle_values = {8, 16};
  spec.solvers = {reseed::SolverChoice::kExact, reseed::SolverChoice::kGreedy};
  ASSERT_EQ(spec.expand().size(), 16u);
  EXPECT_EQ(campaign::spec_hash(spec), 0xca64cf439fba2b48ull);
}

// The key the c17 adder build at T = 8 stores its matrix under, read
// off the one blob the build leaves in a fresh cache directory.
TEST(HashPin, MatrixCacheKeyOfTheC17AdderBuild) {
  const std::string dir = ::testing::TempDir() + "fbist_hash_pin_cache";
  fs::remove_all(dir);
  reseed::PipelineOptions opts;
  opts.matrix_cache =
      std::make_shared<reseed::MatrixCache>(reseed::MatrixCacheOptions{dir});
  const reseed::Pipeline p("c17", opts);
  p.build(tpg::TpgKind::kAdder, 8);
  const auto entries = reseed::MatrixCache::list_dir(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, 0xd8239403c73b7de3ull);
  fs::remove_all(dir);
}

// Bit i is set iff evaluation i of a spec.read=err(0.5,7) site fired.
TEST(HashPin, FailpointFirings) {
  util::failpoint::configure("spec.read=err(0.5,7)");
  std::uint64_t fired = 0;
  for (int i = 0; i < 64; ++i) {
    try {
      util::failpoint::eval("spec.read");
    } catch (const util::failpoint::InjectedError&) {
      fired |= std::uint64_t{1} << i;
    }
  }
  util::failpoint::clear();
  EXPECT_EQ(fired, 0x024c3c1f5311f12full);
}

}  // namespace
}  // namespace fbist
