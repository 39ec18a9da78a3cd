#include "campaign/runner.h"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <unordered_map>

#include "campaign/checkpoint.h"
#include "obs/clock.h"
#include "obs/diag.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reseed/matrix_cache.h"
#include "reseed/serialize.h"
#include "util/deadline.h"
#include "util/guarded_io.h"

namespace fbist::campaign {

namespace {

/// Shared per-circuit state: the prepared snapshot (or the preparation
/// error) plus the report positions of the circuit's runs, grouped by
/// TPG: one family per (circuit, TPG).
struct CircuitCtx {
  std::string name;
  std::map<tpg::TpgKind, std::vector<std::size_t>> families;  // Report::runs
  reseed::PreparedCircuit prepared;  // null on failure
  std::string error;
};

/// Runs `fn` under a fresh budget of `timeout_ms` (0: none), passing it
/// the deadline to poll or null; on an exception records its report
/// text in `error` and returns false.  A deadline expiry becomes a
/// canonical message that names only the configured budget — never the
/// elapsed time or the stage that noticed — so a timed-out run's report
/// and checkpoint content is deterministic.
template <typename Fn>
bool attempt(std::uint64_t timeout_ms, std::string& error, Fn&& fn) {
  const util::Deadline deadline = timeout_ms == 0
                                      ? util::Deadline()
                                      : util::Deadline::after_ms(timeout_ms);
  try {
    fn(deadline.armed() ? &deadline : nullptr);
    return true;
  } catch (const util::TimeoutError&) {
    error = "run timeout: exceeded " + std::to_string(timeout_ms) + " ms";
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown error";
  }
  return false;
}

/// Evaluates one run from `family`, its (circuit, TPG)'s initial
/// reseeding at T = `family_cycles`: thresholds it at the run's T (a run
/// at the family's own T solves the family itself, with no copy) and
/// solves it under the run's own deadline.
void execute_run(const reseed::Pipeline& p,
                 const reseed::InitialReseeding& family,
                 std::size_t family_cycles, RunResult& out,
                 std::uint64_t timeout_ms) {
  OBS_SPAN("run", run_label(out.spec));
  const std::uint64_t start = obs::Clock::now_ns();
  out.ok = attempt(timeout_ms, out.error, [&](const util::Deadline* deadline) {
    std::optional<reseed::InitialReseeding> thresholded;
    if (out.spec.cycles != family_cycles) {
      thresholded = reseed::at_cycles(family, out.spec.cycles);
    }
    reseed::OptimizerOptions oopt = p.options().optimizer;
    oopt.solver = out.spec.solver;
    const reseed::ReseedingSolution sol =
        p.solve(thresholded ? *thresholded : family, oopt, deadline);

    out.circuit_inputs = p.circuit().num_inputs();
    out.circuit_gates = p.circuit().num_gates();
    out.atpg_patterns = p.atpg_patterns().size();
    out.faults_targeted = sol.faults_targeted;
    out.redundant = p.atpg_result().redundant_faults;
    out.sat_detected = p.atpg_result().sat_detected_faults;
    out.num_triplets = sol.num_triplets();
    out.test_length = sol.test_length;
    out.faults_covered = sol.faults_covered;
    out.faults_uncoverable = sol.faults_uncoverable;
    out.necessary_triplets = sol.necessary_count;
    out.solver_triplets = sol.solver_count;
    out.solver_optimal = sol.solver_optimal;
    out.rom_bits = reseed::to_rom_image(sol, out.spec.circuit,
                                        tpg::tpg_kind_name(out.spec.tpg),
                                        p.circuit().num_inputs())
                       .rom_bits();
  });
  out.wall_ms = obs::Clock::to_ms(obs::Clock::now_ns() - start);
}

/// Persists a completed run's blob.  Checkpointing is durability, not
/// correctness: an unwritable directory mid-sweep degrades resume, so
/// it warns instead of failing the (already computed) run.
void checkpoint_run(CheckpointStore& store, std::size_t pos,
                    const RunResult& result) {
  try {
    store.write(pos, result);
  } catch (const std::exception& e) {
    obs::diag(obs::Severity::kWarn, "checkpoint",
              std::string(e.what()) + " (run " + run_label(result.spec) +
                  " continues un-checkpointed)");
  }
}

/// Writes an observability artifact (trace / metrics JSON) through the
/// guarded I/O layer (atomic write, transient retries, failpoint at
/// `site`).  Like checkpointing, these are byproducts: an unwritable
/// path warns instead of failing the finished campaign.
void write_artifact(const char* site, const std::string& path,
                    const std::string& payload, const char* what) {
  try {
    util::io::write_file_atomic(site, path, payload);
  } catch (const util::io::IoError& e) {
    obs::diag(obs::Severity::kWarn, "obs",
              std::string("cannot write ") + what + " file " + path + ": " +
                  e.what());
  }
}

/// Evaluates one (circuit, TPG) family: builds its matrix once, at the
/// largest T of `run_ids`, under one run budget (a build that fails or
/// times out fails every run of the family with the same message), then
/// thresholds, solves and checkpoints each run at its own report
/// position.
void execute_family(const CircuitCtx& ctx, tpg::TpgKind kind,
                    const std::vector<std::size_t>& run_ids, Report& report,
                    CheckpointStore* store,
                    const std::vector<std::size_t>& positions,
                    std::uint64_t timeout_ms) {
  std::size_t cycles = 0;
  for (const std::size_t rid : run_ids) {
    cycles = std::max(cycles, report.runs[rid].spec.cycles);
  }
  std::optional<reseed::InitialReseeding> family;
  std::string error;
  if (ctx.prepared == nullptr) {
    error = "circuit preparation failed: " + ctx.error;
  } else {
    attempt(timeout_ms, error, [&](const util::Deadline* deadline) {
      family = ctx.prepared->build(kind, cycles, deadline);
    });
  }
  for (const std::size_t rid : run_ids) {
    RunResult& out = report.runs[rid];
    if (family) {
      execute_run(*ctx.prepared, *family, cycles, out, timeout_ms);
    } else {
      out.ok = false;
      out.error = error;
    }
    if (store != nullptr) checkpoint_run(*store, positions[rid], out);
  }
}

}  // namespace

Report run_campaign(const CampaignSpec& spec, const CampaignOptions& opts,
                    Scheduler* sched) {
  spec.validate();
  // Canonical positions this process executes (throws on a bad shard).
  const std::vector<std::size_t> positions =
      spec.shard(opts.shard_index, opts.shard_count);
  const std::vector<RunSpec> all_runs = spec.expand();

  Scheduler* s = sched;
  if (s == nullptr) {
    s = &Scheduler::global();
    if (opts.jobs != 0 && opts.jobs != s->num_workers()) {
      s->set_workers(opts.jobs);
    }
  }

  // Observability: the tracer records for exactly the campaign's
  // duration; metrics are reported as a delta of the process-wide
  // registry so back-to-back campaigns don't pollute each other.  Both
  // are pure byproducts — the canonical report bytes never depend on
  // them (see tests/campaign determinism checks).
  obs::Tracer& tracer = obs::Tracer::global();
  const bool tracing = !opts.trace_file.empty();
  if (tracing) {
    tracer.clear();
    tracer.set_thread_name("campaign");
    tracer.enable();
  }
  const obs::MetricsSnapshot metrics_start = obs::Registry::global().snapshot();

  const std::uint64_t start = obs::Clock::now_ns();
  Report report;
  report.jobs = s->num_workers();
  report.shard_index = opts.shard_index;
  report.shard_count = opts.shard_count;
  report.runs.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    report.runs[i].spec = all_runs[positions[i]];
  }

  // Resume: load valid blobs and fill their report slots up front, so
  // only the remainder fans out.  load() throws on blobs from a
  // different spec (see CheckpointStore) — before any work starts.
  std::unique_ptr<CheckpointStore> store;
  std::vector<bool> pending(positions.size(), true);
  if (!opts.checkpoint_dir.empty()) {
    store = std::make_unique<CheckpointStore>(opts.checkpoint_dir, spec);
    std::unordered_map<std::size_t, RunResult> done = store->load();
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const auto it = done.find(positions[i]);
      if (it == done.end()) continue;
      report.runs[i] = std::move(it->second);
      pending[i] = false;
      ++report.checkpoint.resumed;
    }
    report.checkpoint.enabled = true;
    report.checkpoint.corrupt = store->corrupt();
    report.checkpoint.stale_tmp_removed = store->stale_tmp_removed();
  }

  // Distinct circuits over the *pending* runs, first-appearance order;
  // duplicate names share one preparation, and a circuit whose runs
  // are all checkpointed is never prepared at all.
  std::vector<CircuitCtx> circuits;
  {
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (!pending[i]) continue;
      const RunSpec& rs = report.runs[i].spec;
      auto [it, inserted] = index.emplace(rs.circuit, circuits.size());
      if (inserted) circuits.push_back(CircuitCtx{rs.circuit, {}, {}, {}});
      circuits[it->second].families[rs.tpg].push_back(i);
      ++report.checkpoint.executed;
    }
  }

  // The cache rides in on the pipeline options so every prepared
  // circuit's runs share it; the shared_ptr keeps it alive past the
  // campaign for stats readout.
  reseed::PipelineOptions popts = spec.pipeline;
  popts.matrix_cache = opts.matrix_cache;

  // One task per circuit: prepare, then fan this circuit's families out
  // as nested tasks (no barrier — fast circuits evaluate while slow ones
  // still run ATPG).  `group` outlives every nested submission because
  // wait() returns only when the count of *all* submitted tasks,
  // including nested ones, reaches zero.  Each run's checkpoint blob is
  // written by its family's task as soon as the run completes — results
  // land at disjoint report positions and disjoint files, so neither
  // step takes a shared lock.
  TaskGroup group(*s);
  const std::uint64_t timeout_ms = opts.run_timeout_ms;
  for (CircuitCtx& ctx : circuits) {
    group.run([&group, &report, &ctx, &popts, &store, &positions,
               timeout_ms] {
      try {
        OBS_SPAN("prepare", ctx.name);
        ctx.prepared = reseed::Pipeline::prepare(load_circuit(ctx.name),
                                                 ctx.name, popts);
      } catch (const std::exception& e) {
        ctx.error = e.what();
      } catch (...) {
        ctx.error = "unknown error";
      }
      for (const auto& [kind, run_ids] : ctx.families) {
        group.run([&ctx, &report, &store, &positions, kind = kind,
                   &run_ids = run_ids, timeout_ms] {
          execute_family(ctx, kind, run_ids, report, store.get(), positions,
                         timeout_ms);
        });
      }
    });
  }
  group.wait();

  if (store != nullptr) report.checkpoint.written = store->written();

  if (opts.matrix_cache != nullptr) {
    const reseed::MatrixCacheStats cs = opts.matrix_cache->stats();
    report.cache.enabled = true;
    report.cache.hits = cs.hits;
    report.cache.misses = cs.misses;
    report.cache.stores = cs.stores;
  }

  report.wall_ms = obs::Clock::to_ms(obs::Clock::now_ns() - start);

  report.metrics =
      obs::Registry::global().snapshot().delta_from(metrics_start);
  report.metrics_enabled = true;
  if (tracing) {
    tracer.disable();
    write_artifact("trace.write", opts.trace_file, tracer.to_chrome_json(),
                   "trace");
  }
  if (!opts.metrics_file.empty()) {
    write_artifact("metrics.write", opts.metrics_file,
                   obs::metrics_to_json(report.metrics), "metrics");
  }
  return report;
}

}  // namespace fbist::campaign
