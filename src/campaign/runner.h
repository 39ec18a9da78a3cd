// Campaign execution: a CampaignSpec on the shared work-stealing pool.
//
// Per distinct circuit one preparation task runs (parse/instantiate,
// compile to netlist::CompiledCircuit, collapse faults, ATPG); the
// prepared snapshot (reseed::PreparedCircuit) is immutable, so every
// run of that circuit shares it without re-deriving anything.  The
// circuit's runs fan out as one task per TPG kind — a family: it builds
// the detection matrix once, at the largest T among its runs, and
// derives every (T, solver) run from that build by thresholding
// (reseed::at_cycles, identical to a fresh build at that T).  Family
// tasks are submitted by their circuit's preparation task, so fast
// circuits start evaluating while slow ones still prepare, and the
// PPSFP inner loops of every build join the same pool (see
// campaign/scheduler.h).
//
// Failure isolation: an exception inside preparation, a family's build
// or a run is caught and recorded on the affected RunResult(s); the
// rest of the campaign is unaffected.
//
// Determinism: results land at spec-assigned report positions and all
// randomness is seeded from circuit/TPG identities, so the Report —
// and its canonical JSON — is bit-identical at 1 and N workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "campaign/report.h"
#include "campaign/scheduler.h"
#include "campaign/spec.h"

namespace fbist::reseed {
class MatrixCache;
}

namespace fbist::campaign {

struct CampaignOptions {
  /// Worker threads.  0 keeps the current pool size; a nonzero value
  /// resizes the global scheduler (ignored when an explicit scheduler
  /// is passed to run_campaign).
  std::size_t jobs = 0;
  /// Cross-process detection-matrix cache (reseed/matrix_cache.h)
  /// consulted by every family build of the campaign: repeated
  /// campaigns against one directory skip fault simulation entirely.
  /// Within one campaign each (circuit, TPG) is built once anyway, so
  /// the counters in Report::cache count families: a fresh sweep
  /// records one miss and one store per (circuit, TPG).  Null disables
  /// caching.
  std::shared_ptr<reseed::MatrixCache> matrix_cache;

  /// Checkpoint directory (campaign/checkpoint.h).  When non-empty,
  /// every completed run is persisted as a versioned per-run blob
  /// (written from the completing task itself, off any shared state),
  /// and on startup valid blobs are loaded and their runs skipped —
  /// circuits with no remaining runs are never prepared.  A killed
  /// sweep resumes where it left off and its report stays
  /// byte-identical to an uninterrupted run; merge_checkpoints folds
  /// shard/checkpoint sets back into one report.  Counters land in
  /// Report::checkpoint.
  std::string checkpoint_dir;

  /// Shard of the canonical run order to execute: shard_index of
  /// shard_count contiguous balanced slices (CampaignSpec::shard).
  /// The report then covers only this shard's runs, in canonical
  /// order; the full report is reassembled from the shards' checkpoint
  /// blobs by merge_checkpoints / `fbist merge`.  Defaults to the
  /// whole sweep.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  /// Chrome trace_event output (`--trace FILE`): enables the process
  /// tracer for the campaign's duration and serializes every span —
  /// one track per scheduler worker plus the caller — to FILE at the
  /// end (loadable in Perfetto / chrome://tracing).  Empty disables
  /// tracing; with FBIST_OBSERVABILITY=0 builds the file is written
  /// but contains no events.
  std::string trace_file;

  /// Standalone metrics document (`--metrics FILE`): snapshots the
  /// process-wide metrics registry before and after the campaign and
  /// writes the delta to FILE; the same delta lands in the report's
  /// execution section (Report::metrics).  Neither artifact perturbs
  /// the canonical report bytes.
  std::string metrics_file;

  /// Per-run wall-clock budget in milliseconds (`--run-timeout MS`);
  /// 0 disables.  A family's matrix build runs under one such budget
  /// (a util::Deadline polled between packings), and each of its runs'
  /// threshold and solve runs under its own (polled through the
  /// optimizer and exact solver).  An expired build fails every run of
  /// its family; an expired run fails alone.  Either way the run
  /// records the canonical failure "run timeout: exceeded <MS> ms" —
  /// deterministic content, no elapsed time, no stage — checkpoints
  /// like any other failed run, and the rest of the sweep continues.
  /// Which runs fail under a tight budget depends on timing.
  std::uint64_t run_timeout_ms = 0;
};

/// Executes the spec and returns the filled report.  Uses the global
/// scheduler unless `sched` is given (tests pass private pools).
/// Throws only on a degenerate spec (see CampaignSpec::validate);
/// per-run failures are reported, not thrown.
Report run_campaign(const CampaignSpec& spec, const CampaignOptions& opts = {},
                    Scheduler* sched = nullptr);

}  // namespace fbist::campaign
