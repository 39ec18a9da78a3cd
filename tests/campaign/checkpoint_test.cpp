#include "campaign/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>

#include "campaign/runner.h"

namespace fbist::campaign {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fbist_ckpt_" + name;
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

TEST(Checkpoint, RecordRoundTripsOkAndFailedRuns) {
  CheckpointRecord rec;
  rec.spec = 0xdeadbeefcafe1234ull;
  rec.position = 3;
  rec.total_runs = 7;
  rec.result.spec = RunSpec{"path with spaces/x.bench", tpg::TpgKind::kLfsr,
                            32, reseed::SolverChoice::kGreedy};
  rec.result.ok = true;
  rec.result.circuit_inputs = 5;
  rec.result.circuit_gates = 6;
  rec.result.atpg_patterns = 7;
  rec.result.faults_targeted = 22;
  rec.result.redundant = 4;
  rec.result.sat_detected = 2;
  rec.result.num_triplets = 3;
  rec.result.test_length = 96;
  rec.result.faults_covered = 22;
  rec.result.faults_uncoverable = 1;
  rec.result.necessary_triplets = 2;
  rec.result.solver_triplets = 1;
  rec.result.solver_optimal = true;
  rec.result.rom_bits = 126;
  rec.result.wall_ms = 12.5;

  const CheckpointRecord back =
      checkpoint_from_string(checkpoint_to_string(rec));
  EXPECT_EQ(back.spec, rec.spec);
  EXPECT_EQ(back.position, rec.position);
  EXPECT_EQ(back.total_runs, rec.total_runs);
  EXPECT_EQ(back.result.spec.circuit, rec.result.spec.circuit);
  EXPECT_EQ(back.result.spec.tpg, rec.result.spec.tpg);
  EXPECT_EQ(back.result.spec.cycles, rec.result.spec.cycles);
  EXPECT_EQ(back.result.spec.solver, rec.result.spec.solver);
  EXPECT_TRUE(back.result.ok);
  EXPECT_EQ(back.result.faults_targeted, 22u);
  EXPECT_EQ(back.result.redundant, 4u);
  EXPECT_EQ(back.result.sat_detected, 2u);
  EXPECT_EQ(back.result.num_triplets, 3u);
  EXPECT_EQ(back.result.test_length, 96u);
  EXPECT_EQ(back.result.faults_uncoverable, 1u);
  EXPECT_EQ(back.result.necessary_triplets, 2u);
  EXPECT_EQ(back.result.solver_triplets, 1u);
  EXPECT_TRUE(back.result.solver_optimal);
  EXPECT_EQ(back.result.rom_bits, 126u);
  EXPECT_DOUBLE_EQ(back.result.wall_ms, 12.5);

  rec.result.ok = false;
  rec.result.error = "solver exploded: node budget exceeded (42 nodes)";
  const CheckpointRecord fail =
      checkpoint_from_string(checkpoint_to_string(rec));
  EXPECT_FALSE(fail.result.ok);
  EXPECT_EQ(fail.result.error, rec.result.error);
}

TEST(Checkpoint, ReadRejectsMalformedRecords) {
  EXPECT_THROW(checkpoint_from_string(""), std::runtime_error);
  EXPECT_THROW(checkpoint_from_string("not a checkpoint\n"),
               std::runtime_error);
  // Future version: rejected with a message naming both versions.
  try {
    checkpoint_from_string("fbist-ckpt v9\n");
    FAIL() << "v9 accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("v9"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("v2"), std::string::npos);
  }
  // Pre-SAT-escalation v1 blobs (shorter counts line) read as corrupt
  // and are re-executed rather than silently mis-parsed.
  EXPECT_THROW(checkpoint_from_string("fbist-ckpt v1\n"
                                      "spec 0000000000000001\n"
                                      "run 0 1\n"
                                      "circuit c17\n"),
               std::runtime_error);
  // Truncated: identity present but no ok/counts.
  EXPECT_THROW(checkpoint_from_string("fbist-ckpt v2\n"
                                      "spec 0000000000000001\n"
                                      "run 0 1\n"
                                      "circuit c17\n"),
               std::runtime_error);
}

/// `blob` with the value of its `key` record replaced by `value`.
std::string with_record(const std::string& blob, const std::string& key,
                        const std::string& value) {
  const std::size_t at = blob.find("\n" + key + " ") + 1;
  const std::size_t end = blob.find('\n', at);
  return blob.substr(0, at) + key + " " + value + blob.substr(end);
}

// Every unsigned field reads strictly: a sign or trailing junk is the
// line's error (so CheckpointStore::load skips the blob as corrupt and
// re-executes its run), never a wrapped or truncated number.
TEST(Checkpoint, ReadRejectsMalformedNumbers) {
  CheckpointRecord rec;
  rec.spec = 1;
  rec.total_runs = 4;
  rec.result.spec = RunSpec{"c17", tpg::TpgKind::kAdder, 8,
                            reseed::SolverChoice::kExact};
  rec.result.ok = true;
  const std::string blob = checkpoint_to_string(rec);
  ASSERT_NO_THROW(checkpoint_from_string(blob));
  const auto expect_error = [](const std::string& text,
                               const std::string& want) {
    try {
      checkpoint_from_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  };
  for (const std::string bad : {"-1", "+6", "6junk"}) {
    SCOPED_TRACE(bad);
    expect_error(with_record(blob, "run", bad + " 4"),
                 "ckpt line 3: bad run position");
    expect_error(with_record(blob, "run", "0 " + bad),
                 "ckpt line 3: bad run position");
    expect_error(with_record(blob, "cycles", bad), "ckpt line 6: bad cycles");
    expect_error(with_record(blob, "ok", bad), "ckpt line 8: bad ok flag");
    expect_error(with_record(blob, "counts", bad + " 0 0 0 0 0 0 0 0 0 0 0 0 0"),
                 "ckpt line 9: bad counts");
    expect_error(with_record(blob, "counts", "0 0 0 0 0 0 0 0 0 0 0 0 0 " + bad),
                 "ckpt line 9: bad counts");
  }
  // The spec hash is 16 lowercase hex digits, as spec_hash_hex writes it.
  expect_error(with_record(blob, "spec", "+000000000000001"),
               "ckpt line 2: bad spec hash");
  expect_error(with_record(blob, "spec", "1"), "ckpt line 2: bad spec hash");
}

// A blob whose cycle count reads -8 is corrupt: it is skipped and its
// run re-executed, not taken for a run of another spec.
TEST(Checkpoint, NegativeCycleCountIsSkippedAndRebuilt) {
  const std::string dir = scratch_dir("negative_cycles");
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  const Report full = run_campaign(spec, copts, &sched);

  CheckpointStore store(dir, spec);
  std::string blob;
  {
    std::ifstream in(store.blob_path(1));
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(store.blob_path(1), std::ios::trunc);
    out << with_record(blob, "cycles", "-8");
  }

  const Report resumed = run_campaign(spec, copts, &sched);
  EXPECT_EQ(resumed.checkpoint.corrupt, 1u);
  EXPECT_EQ(resumed.checkpoint.resumed, 3u);
  EXPECT_EQ(resumed.checkpoint.executed, 1u);
  EXPECT_EQ(resumed.to_json(), full.to_json());
  fs::remove_all(dir);
}

TEST(Checkpoint, ResumeIsByteIdenticalAndSkipsAllCompletedRuns) {
  const std::string dir = scratch_dir("resume");
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();

  const Report fresh = run_campaign(spec, {}, &sched);

  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  const Report first = run_campaign(spec, copts, &sched);
  EXPECT_EQ(first.checkpoint.resumed, 0u);
  EXPECT_EQ(first.checkpoint.executed, 4u);
  EXPECT_EQ(first.checkpoint.written, 4u);
  EXPECT_EQ(first.to_json(), fresh.to_json());

  // Zero remaining runs: everything resumes, nothing is prepared or
  // executed, and the report is still byte-identical.
  const Report resumed = run_campaign(spec, copts, &sched);
  EXPECT_EQ(resumed.checkpoint.resumed, 4u);
  EXPECT_EQ(resumed.checkpoint.executed, 0u);
  EXPECT_EQ(resumed.checkpoint.written, 0u);
  EXPECT_EQ(resumed.to_json(), fresh.to_json());
  fs::remove_all(dir);
}

TEST(Checkpoint, PartialResumeExecutesOnlyTheMissingRuns) {
  const std::string dir = scratch_dir("partial");
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  const Report full = run_campaign(spec, copts, &sched);

  // Simulate a crash that lost one run: delete its blob.
  CheckpointStore store(dir, spec);
  ASSERT_TRUE(fs::remove(store.blob_path(2)));

  const Report resumed = run_campaign(spec, copts, &sched);
  EXPECT_EQ(resumed.checkpoint.resumed, 3u);
  EXPECT_EQ(resumed.checkpoint.executed, 1u);
  EXPECT_EQ(resumed.checkpoint.written, 1u);
  EXPECT_EQ(resumed.to_json(), full.to_json());
  EXPECT_TRUE(fs::exists(store.blob_path(2)));  // blob rebuilt
  fs::remove_all(dir);
}

TEST(Checkpoint, CorruptBlobIsSkippedAndRebuilt) {
  const std::string dir = scratch_dir("corrupt");
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  const Report full = run_campaign(spec, copts, &sched);

  CheckpointStore store(dir, spec);
  {
    std::ofstream out(store.blob_path(1), std::ios::trunc);
    out << "fbist-ckpt v2\ntruncated mid-wri";
  }

  const Report resumed = run_campaign(spec, copts, &sched);
  EXPECT_EQ(resumed.checkpoint.corrupt, 1u);
  EXPECT_EQ(resumed.checkpoint.resumed, 3u);
  EXPECT_EQ(resumed.checkpoint.executed, 1u);
  EXPECT_EQ(resumed.to_json(), full.to_json());

  // The rebuild overwrote the torn blob: a further resume is complete.
  const Report again = run_campaign(spec, copts, &sched);
  EXPECT_EQ(again.checkpoint.corrupt, 0u);
  EXPECT_EQ(again.checkpoint.resumed, 4u);
  fs::remove_all(dir);
}

TEST(Checkpoint, BlobsFromADifferentSpecAreRejectedLoudly) {
  const std::string dir = scratch_dir("stale");
  Scheduler sched(2);
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  run_campaign(small_spec(), copts, &sched);

  CampaignSpec other = small_spec();
  other.cycle_values = {8};  // different expansion -> different hash
  try {
    run_campaign(other, copts, &sched);
    FAIL() << "stale checkpoint directory accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("spec hash"), std::string::npos);
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, FailedRunsCheckpointAndResumeToo) {
  const std::string dir = scratch_dir("failed");
  Scheduler sched(2);
  CampaignSpec spec;
  spec.circuits = {"c17", "/nonexistent/broken.bench"};
  spec.cycle_values = {8};
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  const Report first = run_campaign(spec, copts, &sched);
  EXPECT_EQ(first.num_failed(), 1u);
  EXPECT_EQ(first.checkpoint.written, 2u);

  const Report resumed = run_campaign(spec, copts, &sched);
  EXPECT_EQ(resumed.checkpoint.resumed, 2u);
  EXPECT_EQ(resumed.checkpoint.executed, 0u);
  EXPECT_EQ(resumed.to_json(), first.to_json());
  fs::remove_all(dir);
}

TEST(CampaignSpec, ShardSlicesPartitionTheCanonicalOrder) {
  const CampaignSpec spec = small_spec();  // 4 runs
  for (std::size_t n = 1; n <= 6; ++n) {
    std::vector<std::size_t> seen;
    for (std::size_t i = 0; i < n; ++i) {
      const auto slice = spec.shard(i, n);
      // Deterministic: the same call yields the same slice.
      EXPECT_EQ(slice, spec.shard(i, n));
      seen.insert(seen.end(), slice.begin(), slice.end());
    }
    // Together the shards cover 0..R-1 exactly once, in order.
    std::vector<std::size_t> want(spec.expand().size());
    std::iota(want.begin(), want.end(), 0u);
    EXPECT_EQ(seen, want) << n << " shards";
  }
  EXPECT_THROW(spec.shard(0, 0), std::invalid_argument);
  EXPECT_THROW(spec.shard(3, 3), std::invalid_argument);
}

TEST(Checkpoint, ShardedSweepMergesByteIdenticalToUninterrupted) {
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  const Report fresh = run_campaign(spec, {}, &sched);

  // Three shards, each into its own directory (cross-host shape).
  std::vector<std::string> dirs;
  for (std::size_t i = 0; i < 3; ++i) {
    dirs.push_back(scratch_dir("shard" + std::to_string(i)));
    CampaignOptions copts;
    copts.checkpoint_dir = dirs.back();
    copts.shard_index = i;
    copts.shard_count = 3;
    const Report shard = run_campaign(spec, copts, &sched);
    EXPECT_EQ(shard.runs.size(), spec.shard(i, 3).size());
    EXPECT_EQ(shard.shard_index, i);
    EXPECT_EQ(shard.shard_count, 3u);
  }

  const Report merged = merge_checkpoints(spec, dirs);
  EXPECT_EQ(merged.checkpoint.resumed, 4u);
  EXPECT_EQ(merged.to_json(), fresh.to_json());
  for (const auto& d : dirs) fs::remove_all(d);
}

TEST(Checkpoint, MergeToleratesOverlappingShardSets) {
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();

  // dir0 holds shard 1/2, dir1 holds the whole sweep: positions of
  // shard 1/2 appear in both directories.
  const std::string dir0 = scratch_dir("overlap0");
  const std::string dir1 = scratch_dir("overlap1");
  CampaignOptions copts;
  copts.checkpoint_dir = dir0;
  copts.shard_count = 2;
  run_campaign(spec, copts, &sched);
  copts.checkpoint_dir = dir1;
  copts.shard_count = 1;
  const Report full = run_campaign(spec, copts, &sched);

  const Report merged = merge_checkpoints(spec, {dir0, dir1});
  EXPECT_EQ(merged.to_json(), full.to_json());
  fs::remove_all(dir0);
  fs::remove_all(dir1);
}

TEST(Checkpoint, MergeWithMissingRunsThrows) {
  Scheduler sched(2);
  const CampaignSpec spec = small_spec();
  const std::string dir = scratch_dir("incomplete");
  CampaignOptions copts;
  copts.checkpoint_dir = dir;
  copts.shard_index = 0;
  copts.shard_count = 2;  // only half the sweep has blobs
  run_campaign(spec, copts, &sched);

  try {
    merge_checkpoints(spec, {dir});
    FAIL() << "incomplete merge accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("have no checkpoint"),
              std::string::npos);
  }
  EXPECT_THROW(merge_checkpoints(spec, {}), std::runtime_error);
  fs::remove_all(dir);
}

TEST(Checkpoint, SpecHashCoversEveryRunAxis) {
  const CampaignSpec base = small_spec();
  const std::uint64_t h = spec_hash(base);
  EXPECT_EQ(h, spec_hash(base));  // stable

  CampaignSpec c = base;
  c.circuits = {"c432"};
  EXPECT_NE(spec_hash(c), h);
  c = base;
  c.tpgs = {tpg::TpgKind::kAdder};
  EXPECT_NE(spec_hash(c), h);
  c = base;
  c.cycle_values = {8, 32};
  EXPECT_NE(spec_hash(c), h);
  c = base;
  c.solvers = {reseed::SolverChoice::kGreedy};
  EXPECT_NE(spec_hash(c), h);

  // Every pipeline option that changes a run's result.
  const std::vector<void (*)(reseed::PipelineOptions&)> options = {
      [](reseed::PipelineOptions& o) { o.atpg.podem.backtrack_limit += 1; },
      [](reseed::PipelineOptions& o) { o.atpg.sat_escalate = false; },
      [](reseed::PipelineOptions& o) { o.atpg.sat.conflict_limit += 1; },
      [](reseed::PipelineOptions& o) { o.atpg.seed += 1; },
      [](reseed::PipelineOptions& o) { o.builder.seed += 1; },
      [](reseed::PipelineOptions& o) { o.builder.shared_sigma = true; },
      [](reseed::PipelineOptions& o) {
        o.optimizer.reduce.use_essentiality = false;
      },
      [](reseed::PipelineOptions& o) {
        o.optimizer.reduce.use_row_dominance = false;
      },
      [](reseed::PipelineOptions& o) {
        o.optimizer.reduce.use_col_dominance = false;
      },
      [](reseed::PipelineOptions& o) { o.optimizer.exact.node_budget += 1; },
      [](reseed::PipelineOptions& o) { o.optimizer.skip_reduction = true; },
      [](reseed::PipelineOptions& o) { o.optimizer.trim_lengths = false; },
  };
  for (std::size_t i = 0; i < options.size(); ++i) {
    c = base;
    options[i](c.pipeline);
    EXPECT_NE(spec_hash(c), h) << "pipeline option " << i;
  }
}

// A directory written with SAT escalation on holds another sweep than
// the same runs with escalation off: reopening it for the off sweep
// throws from load(), and merging it does too.
TEST(Checkpoint, BlobsFromOtherPipelineOptionsAreRejected) {
  const std::string dir = scratch_dir("options");
  const CampaignSpec on = small_spec();
  RunResult result;
  result.spec = on.expand()[0];
  result.ok = true;
  CheckpointStore(dir, on).write(0, result);
  EXPECT_EQ(CheckpointStore(dir, on).load().size(), 1u);

  CampaignSpec off = on;
  off.pipeline.atpg.sat_escalate = false;
  CheckpointStore store(dir, off);
  for (const bool merge : {false, true}) {
    try {
      if (merge) {
        merge_checkpoints(off, {dir});
      } else {
        store.load();
      }
      FAIL() << "blob from other pipeline options accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("does not match this campaign"),
                std::string::npos)
          << e.what();
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fbist::campaign
