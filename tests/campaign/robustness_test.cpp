// Hardened-execution integration tests: fault injection through the
// real campaign stack.  Chaos runs must keep the canonical report
// byte-identical; permanent failures must degrade (breakers), never
// abort the sweep; timeouts must record canonical failures that
// checkpoint and resume like any other.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "campaign/checkpoint.h"
#include "campaign/runner.h"
#include "reseed/matrix_cache.h"
#include "reseed/serialize.h"
#include "util/failpoint.h"

namespace fbist::campaign {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fbist_robust_" + name;
  fs::remove_all(dir);
  return dir;
}

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.circuits = {"c17"};
  spec.tpgs = {tpg::TpgKind::kAdder, tpg::TpgKind::kLfsr};
  spec.cycle_values = {8, 16};
  return spec;  // 4 runs
}

std::shared_ptr<reseed::MatrixCache> disk_cache(const std::string& dir) {
  reseed::MatrixCacheOptions mopts;
  mopts.dir = dir;
  return std::make_shared<reseed::MatrixCache>(mopts);
}

/// Failpoints are process-global; every test starts and ends disarmed.
class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { util::failpoint::clear(); }
  void TearDown() override { util::failpoint::clear(); }
};

TEST_F(RobustnessTest, ChaosInjectionKeepsTheCanonicalReportByteIdentical) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  const Report fresh = run_campaign(spec, {}, &sched);

  // Transient errors at every durable-I/O site the campaign touches.
  // Whatever fires — a retried write, a given-up cache read, even a
  // tripped breaker — only durability may degrade; the canonical
  // report bytes must not move.
  util::failpoint::configure(
      "cache.disk_read=err(0.4,11);cache.disk_write=err(0.4,12);"
      "checkpoint.read=err(0.4,13);checkpoint.write=err(0.4,14)");

  const std::string ckpt = scratch_dir("chaos_ckpt");
  const std::string cache = scratch_dir("chaos_cache");
  CampaignOptions copts;
  copts.checkpoint_dir = ckpt;
  copts.matrix_cache = disk_cache(cache);
  const Report chaotic = run_campaign(spec, copts, &sched);
  EXPECT_EQ(chaotic.to_json(), fresh.to_json());
  EXPECT_GT(util::failpoint::injected_count(), 0u);

  // Resume under the same chaos: checkpoint reads that give up are
  // treated as corrupt and re-executed — still byte-identical.
  copts.matrix_cache = disk_cache(cache);
  const Report resumed = run_campaign(spec, copts, &sched);
  EXPECT_EQ(resumed.to_json(), fresh.to_json());
  EXPECT_EQ(resumed.checkpoint.resumed + resumed.checkpoint.executed, 4u);

  fs::remove_all(ckpt);
  fs::remove_all(cache);
}

TEST_F(RobustnessTest, EnospcTripsTheCheckpointBreakerButTheSweepCompletes) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  const Report fresh = run_campaign(spec, {}, &sched);

  // Every checkpoint write hits a full disk.  Permanent errors skip
  // the retry budget; after three consecutive give-ups the breaker
  // trips and the remaining writes are silent no-ops.
  util::failpoint::configure("checkpoint.write=enospc(1)");
  const std::string dir = scratch_dir("enospc");
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  const Report report = run_campaign(spec, copts, &sched);
  EXPECT_EQ(report.num_failed(), 0u);             // results unharmed
  EXPECT_EQ(report.checkpoint.written, 0u);       // durability lost
  EXPECT_EQ(report.checkpoint.executed, 4u);
  EXPECT_EQ(report.to_json(), fresh.to_json());   // bytes unmoved
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, TransientCheckpointFailuresRecoverWithinTheRetryBudget) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  // Exactly the first two write attempts fail; the retry loop absorbs
  // both and every blob still lands.
  util::failpoint::configure("checkpoint.write=err(1,0,2)");
  const std::string dir = scratch_dir("transient");
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  const Report report = run_campaign(spec, copts, &sched);
  EXPECT_EQ(report.checkpoint.written, 4u);
  EXPECT_EQ(util::failpoint::fires("checkpoint.write"), 2u);

  util::failpoint::clear();
  const Report resumed = run_campaign(spec, copts, &sched);
  EXPECT_EQ(resumed.checkpoint.resumed, 4u);
  EXPECT_EQ(resumed.to_json(), report.to_json());
  fs::remove_all(dir);
}

/// Overwrites one of a populated cache's two blobs (one per TPG family)
/// with `content`, which must not parse, and checks that the next sweep
/// reads it as a miss and rebuilds it: the report is a fresh sweep's,
/// the cache stays up, the intact blob still hits, and the rebuilt blob
/// parses again.
void expect_corrupt_blob_rebuilt(const std::string& name,
                                 const std::string& content) {
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  const std::string dir = scratch_dir(name);
  {
    CampaignOptions copts;
    copts.matrix_cache = disk_cache(dir);
    run_campaign(spec, copts, &sched);  // populate the disk tier
  }
  const auto entries = reseed::MatrixCache::list_dir(dir);
  ASSERT_FALSE(entries.empty());
  const std::string victim =
      (fs::path(dir) / (reseed::MatrixCache::key_hex(entries.front().key) +
                        ".dmx"))
          .string();
  ASSERT_TRUE(fs::exists(victim));
  {
    std::ofstream out(victim, std::ios::trunc);
    out << content;
  }

  const Report fresh = run_campaign(spec, {}, &sched);
  CampaignOptions copts;
  copts.matrix_cache = disk_cache(dir);
  const Report report = run_campaign(spec, copts, &sched);
  EXPECT_EQ(report.to_json(), fresh.to_json());
  // Content corruption is not a disk fault: the cache stays up, the
  // intact blob still hits, the corrupt one is rebuilt.
  EXPECT_FALSE(copts.matrix_cache->disk_degraded());
  EXPECT_EQ(report.cache.hits, 1u);
  EXPECT_EQ(report.cache.misses, 1u);
  std::ifstream in(victim);
  const std::string rebuilt((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_NO_THROW(reseed::matrix_from_string(rebuilt));
  fs::remove_all(dir);
}

// Truncated mid-write shape: reads fine, parses invalid.  A partial file
// must never parse as a valid matrix.
TEST_F(RobustnessTest, TruncatedCacheBlobDegradesToAMissAndIsRebuilt) {
  expect_corrupt_blob_rebuilt("dmx", "fbist-dmx v1\ntruncated mid-wri");
}

// A negative dimension is a malformed number, read as such (a bad blob,
// so a miss), never wrapped to 2^64 - 1 and sized into a failed
// allocation that escapes the cache.
TEST_F(RobustnessTest, NegativeCacheBlobDimensionIsAMissAndIsRebuilt) {
  expect_corrupt_blob_rebuilt("dmx_negative",
                              "fbist-dmx v1\ndims -1 16\nhas-earliest 1\n");
}

TEST_F(RobustnessTest, UnreadableCacheDiskTierTripsTheBreakerAndDegrades) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  const std::string dir = scratch_dir("cache_breaker");
  {
    CampaignOptions copts;
    copts.matrix_cache = disk_cache(dir);
    run_campaign(spec, copts, &sched);  // populate the disk tier
  }
  const Report fresh = run_campaign(spec, {}, &sched);

  // The whole disk tier now fails permanently (yanked-mount shape) —
  // reads and writes both, so no interleaved store success resets the
  // consecutive-failure count.  Three failures trip the breaker; the
  // rest of the sweep skips the tier and rebuilds from simulation.
  util::failpoint::configure("cache.disk_read=perm(1);cache.disk_write=perm(1)");
  CampaignOptions copts;
  copts.matrix_cache = disk_cache(dir);
  const Report report = run_campaign(spec, copts, &sched);
  EXPECT_EQ(report.to_json(), fresh.to_json());
  EXPECT_TRUE(copts.matrix_cache->disk_degraded());
  EXPECT_EQ(report.cache.hits, 0u);
  EXPECT_EQ(report.cache.misses, 2u);
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, RunTimeoutRecordsTheCanonicalFailureAndCheckpoints) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out (no way to stall a run)";
  }
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  // Stall every matrix build long past the budget; the cooperative
  // deadline fires at the next poll.
  util::failpoint::configure("builder.pack=delay(60)");
  const std::string dir = scratch_dir("timeout");
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  copts.run_timeout_ms = 20;
  const Report report = run_campaign(spec, copts, &sched);
  EXPECT_EQ(report.num_failed(), 4u);
  for (const RunResult& r : report.runs) {
    // Canonical content: the configured budget, never the elapsed time
    // or the stage that noticed — so the blob below is deterministic.
    EXPECT_EQ(r.error, "run timeout: exceeded 20 ms");
  }
  EXPECT_EQ(report.checkpoint.written, 4u);  // failures checkpoint too

  // Resume without the stall: timed-out results are resumed as-is, not
  // silently re-executed, and the report bytes repeat exactly.
  util::failpoint::clear();
  const Report resumed = run_campaign(spec, copts, &sched);
  EXPECT_EQ(resumed.checkpoint.resumed, 4u);
  EXPECT_EQ(resumed.checkpoint.executed, 0u);
  EXPECT_EQ(resumed.to_json(), report.to_json());
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, GenerousTimeoutLeavesTheSweepUntouched) {
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  const Report fresh = run_campaign(spec, {}, &sched);
  CampaignOptions copts;
  copts.run_timeout_ms = 600'000;
  const Report report = run_campaign(spec, copts, &sched);
  EXPECT_EQ(report.num_failed(), 0u);
  EXPECT_EQ(report.to_json(), fresh.to_json());
}

TEST_F(RobustnessTest, StaleDeadWriterTempsAreSweptOnOpen) {
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  const std::string dir = scratch_dir("sweep");
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  run_campaign(spec, copts, &sched);

  // A writer killed mid-write left a pid-qualified temp behind; pid
  // 4194303 (kernel pid_max ceiling) is certainly dead.  Our own pid's
  // temp simulates a live concurrent shard and must survive the sweep.
  const std::string dead = dir + "/run-000000.ckpt.tmp.4194303";
  const std::string live =
      dir + "/run-000001.ckpt.tmp." + std::to_string(::getpid());
  { std::ofstream(dead) << "torn"; }
  { std::ofstream(live) << "in flight"; }

  const Report report = run_campaign(spec, copts, &sched);
  EXPECT_EQ(report.checkpoint.stale_tmp_removed, 1u);
  EXPECT_FALSE(fs::exists(dead));
  EXPECT_TRUE(fs::exists(live));
  EXPECT_EQ(report.checkpoint.resumed, 4u);  // blobs themselves intact
  // The count reaches the report's execution section.
  EXPECT_NE(report.to_json(true).find("\"stale_tmp_removed\": 1"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, SpecFilesReadThroughTheRetryingGuardedLayer) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const std::string dir = scratch_dir("spec");
  fs::create_directories(dir);
  const std::string path = dir + "/sweep.txt";
  { std::ofstream(path) << "circuits c17\ncycles 8\n"; }

  util::failpoint::configure("spec.read=err(1,3,2)");
  const CampaignSpec spec = parse_spec_file(path);  // retries absorb both
  EXPECT_EQ(spec.circuits, std::vector<std::string>{"c17"});
  EXPECT_EQ(util::failpoint::fires("spec.read"), 2u);

  util::failpoint::clear();
  try {
    parse_spec_file(dir + "/missing.txt");
    FAIL() << "missing spec accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot read campaign spec"),
              std::string::npos);
  }
  fs::remove_all(dir);
}

TEST(CliParsing, ShardArgErrorsNameTheExpectedFormAndTheViolation) {
  EXPECT_EQ(parse_shard_arg("2/3"), (std::pair<std::size_t, std::size_t>{1, 3}));
  EXPECT_EQ(parse_shard_arg("1/1"), (std::pair<std::size_t, std::size_t>{0, 1}));

  const auto message = [](const std::string& arg) -> std::string {
    try {
      parse_shard_arg(arg);
      return "";
    } catch (const std::runtime_error& e) {
      return e.what();
    }
  };
  for (const char* arg : {"abc", "/3", "2/", "-1/3", "1/x", "1.5/3", "0/2",
                          "2/0", "3/2"}) {
    const std::string msg = message(arg);
    ASSERT_FALSE(msg.empty()) << "accepted: " << arg;
    // Every rejection restates the expected form and echoes the input.
    EXPECT_NE(msg.find("expected I/N with 1 <= I <= N"), std::string::npos)
        << arg;
    EXPECT_NE(msg.find("'" + std::string(arg) + "'"), std::string::npos)
        << arg;
  }
  EXPECT_NE(message("0/2").find("1-based"), std::string::npos);
  EXPECT_NE(message("3/2").find("out of range"), std::string::npos);
  EXPECT_NE(message("2/0").find("count must be >= 1"), std::string::npos);
}

TEST(CliParsing, RunTimeoutArgRejectsNonPositiveInput) {
  EXPECT_EQ(parse_run_timeout_arg("500"), 500u);
  EXPECT_EQ(parse_run_timeout_arg("1"), 1u);
  for (const char* arg : {"", "0", "-5", "12ms", "1.5", "+3"}) {
    try {
      parse_run_timeout_arg(arg);
      FAIL() << "accepted: '" << arg << "'";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("--run-timeout"), std::string::npos) << arg;
      EXPECT_NE(msg.find("positive integer millisecond count"),
                std::string::npos)
          << arg;
    }
  }
}

}  // namespace
}  // namespace fbist::campaign
