#include "campaign/runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "reseed/matrix_cache.h"
#include "reseed/serialize.h"
#include "util/json.h"

namespace fbist::campaign {
namespace {

CampaignSpec small_sweep() {
  CampaignSpec spec;
  spec.circuits = {"c17", "c432", "c880"};
  spec.tpgs = {tpg::TpgKind::kAdder, tpg::TpgKind::kLfsr};
  spec.cycle_values = {32};
  return spec;
}

TEST(Campaign, ReportIsBitIdenticalAcrossWorkerCounts) {
  // The acceptance contract: a multi-circuit spec produces byte-equal
  // canonical JSON on a 1-worker and an 8-worker pool (8 > the likely
  // core count, so oversubscription is covered too).
  Scheduler one(1);
  Scheduler eight(8);
  const CampaignSpec spec = small_sweep();
  const Report r1 = run_campaign(spec, {}, &one);
  const Report r8 = run_campaign(spec, {}, &eight);
  ASSERT_EQ(r1.runs.size(), 6u);
  EXPECT_TRUE(r1.all_ok());
  EXPECT_TRUE(r8.all_ok());
  EXPECT_EQ(r1.to_json(), r8.to_json());
  // Spot-check determinism is not vacuous: real solutions inside.
  for (const auto& r : r1.runs) {
    EXPECT_GT(r.num_triplets, 0u) << run_label(r.spec);
    EXPECT_GT(r.test_length, 0u) << run_label(r.spec);
    EXPECT_EQ(r.faults_covered, r.faults_targeted) << run_label(r.spec);
  }
}

TEST(Campaign, RunsLandAtSpecPositionsAndShareOnePreparation) {
  Scheduler sched(4);
  const CampaignSpec spec = small_sweep();
  const Report rep = run_campaign(spec, {}, &sched);
  const auto runs = spec.expand();
  ASSERT_EQ(rep.runs.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(rep.runs[i].spec.circuit, runs[i].circuit);
    EXPECT_EQ(rep.runs[i].spec.tpg, runs[i].tpg);
  }
  // Both runs of one circuit saw the same prepared snapshot: identical
  // ATPG test set and target fault list.
  EXPECT_EQ(rep.runs[0].atpg_patterns, rep.runs[1].atpg_patterns);
  EXPECT_EQ(rep.runs[0].faults_targeted, rep.runs[1].faults_targeted);
}

TEST(Campaign, BadBenchPathFailsItsRunsNotTheCampaign) {
  Scheduler sched(4);
  CampaignSpec spec;
  spec.circuits = {"c17", "/nonexistent/broken.bench", "c432"};
  spec.tpgs = {tpg::TpgKind::kAdder, tpg::TpgKind::kLfsr};
  spec.cycle_values = {16};
  const Report rep = run_campaign(spec, {}, &sched);
  ASSERT_EQ(rep.runs.size(), 6u);
  EXPECT_EQ(rep.num_failed(), 2u);  // both TPG runs of the bad circuit
  EXPECT_FALSE(rep.all_ok());
  for (const auto& r : rep.runs) {
    if (r.spec.circuit == "/nonexistent/broken.bench") {
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("circuit preparation failed"),
                std::string::npos);
    } else {
      EXPECT_TRUE(r.ok) << run_label(r.spec) << ": " << r.error;
      EXPECT_EQ(r.faults_covered, r.faults_targeted);
    }
  }
  // The failure is part of the deterministic canonical JSON.
  Scheduler one(1);
  EXPECT_EQ(run_campaign(spec, {}, &one).to_json(), rep.to_json());
}

TEST(Campaign, MalformedBenchFileIsIsolatedToo) {
  // A file that parses as a path but not as a netlist: preparation
  // throws inside the task, the report records it, nothing escapes.
  const std::string path = ::testing::TempDir() + "fbist_broken.bench";
  {
    std::ofstream out(path);
    out << "this is not a bench file\n";
  }
  Scheduler sched(2);
  CampaignSpec spec;
  spec.circuits = {path, "c17"};
  spec.cycle_values = {8};
  const Report rep = run_campaign(spec, {}, &sched);
  ASSERT_EQ(rep.runs.size(), 2u);
  EXPECT_FALSE(rep.runs[0].ok);
  EXPECT_TRUE(rep.runs[1].ok);
  std::remove(path.c_str());
}

TEST(Campaign, DuplicateCircuitNamesShareOnePreparation) {
  Scheduler sched(2);
  CampaignSpec spec;
  spec.circuits = {"c17", "c17"};
  spec.cycle_values = {8};
  const Report rep = run_campaign(spec, {}, &sched);
  ASSERT_EQ(rep.runs.size(), 2u);
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.runs[0].num_triplets, rep.runs[1].num_triplets);
}

TEST(Campaign, SolverChoiceIsPerRun) {
  Scheduler sched(2);
  CampaignSpec spec;
  spec.circuits = {"c432"};
  spec.cycle_values = {32};
  spec.solvers = {reseed::SolverChoice::kExact, reseed::SolverChoice::kGreedy};
  const Report rep = run_campaign(spec, {}, &sched);
  ASSERT_EQ(rep.runs.size(), 2u);
  EXPECT_TRUE(rep.all_ok());
  // Greedy may tie the exact solver but never beats it.
  EXPECT_LE(rep.runs[0].num_triplets, rep.runs[1].num_triplets);
  EXPECT_EQ(rep.runs[0].faults_covered, rep.runs[0].faults_targeted);
  EXPECT_EQ(rep.runs[1].faults_covered, rep.runs[1].faults_targeted);
}

// A campaign builds each (circuit, TPG) once, at its largest T, and
// derives every (T, solver) run from that build: a fresh cache records
// one miss and one store per family and no hits (one lookup per run
// would read 12 misses and 12 hits here), and the report equals an
// uncached run's byte for byte.
TEST(Campaign, OneBuildPerCircuitAndTpg) {
  Scheduler sched(2);
  CampaignSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.tpgs = {tpg::TpgKind::kAdder, tpg::TpgKind::kLfsr};
  spec.cycle_values = {8, 16, 64};
  spec.solvers = {reseed::SolverChoice::kExact, reseed::SolverChoice::kGreedy};
  const std::string dir = ::testing::TempDir() + "fbist_family_cache";
  std::filesystem::remove_all(dir);
  reseed::MatrixCacheOptions mopts;
  mopts.dir = dir;

  const Report plain = run_campaign(spec, {}, &sched);
  ASSERT_EQ(plain.runs.size(), 24u);
  EXPECT_TRUE(plain.all_ok());
  CampaignOptions copts;
  copts.matrix_cache = std::make_shared<reseed::MatrixCache>(mopts);
  const Report first = run_campaign(spec, copts, &sched);
  EXPECT_EQ(first.cache.misses, 4u);
  EXPECT_EQ(first.cache.stores, 4u);
  EXPECT_EQ(first.cache.hits, 0u);
  EXPECT_EQ(first.to_json(), plain.to_json());

  copts.matrix_cache = std::make_shared<reseed::MatrixCache>(mopts);
  const Report second = run_campaign(spec, copts, &sched);
  EXPECT_EQ(second.cache.hits, 4u);
  EXPECT_EQ(second.cache.misses, 0u);
  EXPECT_EQ(second.to_json(), plain.to_json());
  std::filesystem::remove_all(dir);
}

// Every run derived from its family's build equals a stand-alone
// Pipeline::run at the run's own T and solver.  T = 1 and 16 are
// one-stage builds, 100 ends a second stage off a power of two, and
// s838's 67 inputs span two words per row.
TEST(Campaign, RunsMatchPipelineRun) {
  Scheduler sched(2);
  CampaignSpec spec;
  spec.circuits = {"c432", "s838"};
  spec.tpgs = {tpg::TpgKind::kAdder, tpg::TpgKind::kMultiplier};
  spec.cycle_values = {1, 16, 64, 100};
  spec.solvers = {reseed::SolverChoice::kExact, reseed::SolverChoice::kGreedy};
  const Report rep = run_campaign(spec, {}, &sched);
  ASSERT_EQ(rep.runs.size(), 32u);
  std::map<std::string, reseed::PreparedCircuit> prepared;
  for (const std::string& c : spec.circuits) {
    prepared[c] = reseed::Pipeline::prepare(c, spec.pipeline);
  }
  for (const RunResult& r : rep.runs) {
    SCOPED_TRACE(run_label(r.spec));
    ASSERT_TRUE(r.ok) << r.error;
    const reseed::Pipeline& p = *prepared.at(r.spec.circuit);
    reseed::OptimizerOptions oopt = spec.pipeline.optimizer;
    oopt.solver = r.spec.solver;
    const reseed::ReseedingSolution sol =
        p.run(r.spec.tpg, r.spec.cycles, oopt);
    EXPECT_EQ(r.num_triplets, sol.num_triplets());
    EXPECT_EQ(r.test_length, sol.test_length);
    EXPECT_EQ(r.faults_targeted, sol.faults_targeted);
    EXPECT_EQ(r.faults_covered, sol.faults_covered);
    EXPECT_EQ(r.faults_uncoverable, sol.faults_uncoverable);
    EXPECT_EQ(r.necessary_triplets, sol.necessary_count);
    EXPECT_EQ(r.rom_bits,
              reseed::to_rom_image(sol, r.spec.circuit,
                                   tpg::tpg_kind_name(r.spec.tpg),
                                   p.circuit().num_inputs())
                  .rom_bits());
  }
}

TEST(Campaign, TimingSectionIsOptIn) {
  Scheduler sched(2);
  CampaignSpec spec;
  spec.circuits = {"c17"};
  spec.cycle_values = {8};
  const Report rep = run_campaign(spec, {}, &sched);
  EXPECT_EQ(rep.to_json().find("execution"), std::string::npos);
  EXPECT_NE(rep.to_json(/*include_timing=*/true).find("execution"),
            std::string::npos);
  EXPECT_EQ(rep.jobs, 2u);
  EXPECT_NE(rep.summary().find("c17"), std::string::npos);
}

TEST(Campaign, ObservabilityNeverChangesCanonicalReportBytes) {
  // --trace/--metrics are pure byproducts: the canonical JSON of an
  // instrumented campaign is byte-identical to an uninstrumented one,
  // at one worker and at several.
  CampaignSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.cycle_values = {16};
  const std::string trace_path = ::testing::TempDir() + "fbist_obs.trace";
  const std::string metrics_path = ::testing::TempDir() + "fbist_obs.metrics";
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
    Scheduler plain_sched(jobs);
    const Report plain = run_campaign(spec, {}, &plain_sched);

    CampaignOptions opts;
    opts.trace_file = trace_path;
    opts.metrics_file = metrics_path;
    Scheduler obs_sched(jobs);
    const Report observed = run_campaign(spec, opts, &obs_sched);

    EXPECT_EQ(plain.to_json(), observed.to_json()) << "jobs=" << jobs;

    // Both artifacts landed and are non-trivial documents.
    std::ifstream tf(trace_path), mf(metrics_path);
    std::stringstream ts, ms;
    ts << tf.rdbuf();
    ms << mf.rdbuf();
    EXPECT_NE(ts.str().find("traceEvents"), std::string::npos);
    EXPECT_NE(ms.str().find("fbist-metrics"), std::string::npos);
  }
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(Campaign, MetricsDeltaLandsInExecutionSection) {
  Scheduler sched(2);
  CampaignSpec spec;
  spec.circuits = {"c17"};
  spec.cycle_values = {8};
  const Report rep = run_campaign(spec, {}, &sched);
  EXPECT_TRUE(rep.metrics_enabled);
  // Canonical JSON never mentions metrics; the execution section does.
  EXPECT_EQ(rep.to_json().find("\"metrics\""), std::string::npos);
  const std::string timed = rep.to_json(/*include_timing=*/true);
  EXPECT_NE(timed.find("\"metrics\""), std::string::npos);
#if FBIST_OBSERVABILITY
  // The delta covers this campaign's own work: the simulator ran and
  // the scheduler executed tasks.
  std::uint64_t sim_campaigns = 0, tasks = 0;
  for (const auto& [name, v] : rep.metrics.counters) {
    if (name == "sim.campaigns") sim_campaigns = v;
    if (name == "scheduler.tasks") tasks = v;
  }
  EXPECT_GT(sim_campaigns, 0u);
  EXPECT_GT(tasks, 0u);
#endif
}

TEST(Campaign, DegenerateSpecThrows) {
  Scheduler sched(1);
  CampaignSpec spec;  // no circuits
  EXPECT_THROW(run_campaign(spec, {}, &sched), std::invalid_argument);
}

TEST(JsonWriterTest, EscapesAndNests) {
  util::JsonWriter w;
  w.begin_object();
  w.key("s");
  w.value("a\"b\\c\nd");
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{7});
  w.value(true);
  w.null_value();
  w.value_fixed(1.25, 2);
  w.end_array();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"s\": \"a\\\"b\\\\c\\nd\",\n"
            "  \"list\": [\n"
            "    7,\n"
            "    true,\n"
            "    null,\n"
            "    1.25\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
}

}  // namespace
}  // namespace fbist::campaign
