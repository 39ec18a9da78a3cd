// Campaign results: one record per run, in spec expansion order.
//
// The report is the campaign's product — the material the paper's
// Tables 1-2 and the T-sweep curves are built from.  Records land at
// spec-assigned positions regardless of which worker produced them, so
// a report (and its canonical JSON form) is bit-identical at 1 and N
// workers.  Wall-clock timings are collected alongside but excluded
// from the canonical JSON; to_json(/*include_timing=*/true) appends
// them in a separate "execution" section for perf archaeology.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "obs/metrics.h"

namespace fbist::campaign {

/// Outcome of one campaign run.  `ok == false` means the run (or its
/// circuit's preparation) failed; `error` carries the message and the
/// solution fields stay zero — one bad run never aborts the campaign.
struct RunResult {
  RunSpec spec;
  bool ok = false;
  std::string error;

  // Circuit context (shared by every run of the circuit).
  std::size_t circuit_inputs = 0;
  std::size_t circuit_gates = 0;
  std::size_t atpg_patterns = 0;
  std::size_t faults_targeted = 0;
  /// Faults certified untestable by ATPG (PODEM implication or a SAT
  /// redundancy certificate) and excluded from the fault universe.
  std::size_t redundant = 0;
  /// PODEM-aborted faults the SAT engine produced a validated test
  /// pattern for (zero when AtpgOptions::sat_escalate is off).
  std::size_t sat_detected = 0;

  // Solution statistics (reseed::ReseedingSolution).
  std::size_t num_triplets = 0;
  std::size_t test_length = 0;
  std::size_t faults_covered = 0;
  std::size_t faults_uncoverable = 0;
  std::size_t necessary_triplets = 0;
  std::size_t solver_triplets = 0;
  bool solver_optimal = false;
  std::size_t rom_bits = 0;

  double coverage_percent() const {
    return faults_targeted == 0
               ? 0.0
               : 100.0 * static_cast<double>(faults_covered) /
                     static_cast<double>(faults_targeted);
  }

  /// Wall time of this run's evaluation (not in canonical JSON).
  double wall_ms = 0.0;
};

struct Report {
  std::vector<RunResult> runs;  // spec expansion order

  /// Execution metadata (not in canonical JSON).
  std::size_t jobs = 0;
  double wall_ms = 0.0;

  /// Matrix-cache counters for the whole campaign (reseed::MatrixCache
  /// installed via CampaignOptions), one lookup per (circuit, TPG)
  /// family.  Like timings, these describe how the results were
  /// produced, not what they are — so they live in the "execution"
  /// section only and cached/uncached canonical reports stay
  /// byte-identical.
  struct CacheStats {
    bool enabled = false;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
  };
  CacheStats cache;

  /// Checkpoint counters (campaign/checkpoint.h, installed via
  /// CampaignOptions::checkpoint_dir).  Execution metadata like the
  /// cache stats: a resumed report's canonical JSON is byte-identical
  /// to an uninterrupted run's.
  struct CheckpointStats {
    bool enabled = false;
    std::uint64_t resumed = 0;   // runs loaded from blobs, not executed
    std::uint64_t executed = 0;  // runs executed by this process
    std::uint64_t written = 0;   // blobs written by this process
    std::uint64_t corrupt = 0;   // unreadable blobs skipped (re-executed)
    std::uint64_t stale_tmp_removed = 0;  // dead-writer temps swept on open
  };
  CheckpointStats checkpoint;

  /// The shard of the canonical run order this report covers
  /// (execution metadata; 0 of 1 = the whole sweep).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  /// Campaign-scoped delta of the process-wide metrics registry
  /// (obs/metrics.h): scheduler steal/idle stats, cache latency
  /// histograms, fault-sim tier counters, pipeline stage timings.
  /// Execution metadata like the timings — serialized only in the
  /// opt-in "execution" section, so canonical report bytes are
  /// untouched by observability.
  bool metrics_enabled = false;
  obs::MetricsSnapshot metrics;

  std::size_t num_ok() const;
  std::size_t num_failed() const { return runs.size() - num_ok(); }
  bool all_ok() const { return num_ok() == runs.size(); }

  /// Canonical JSON document.  Deterministic for a given spec; timings
  /// and worker counts only appear when `include_timing` is set.
  std::string to_json(bool include_timing = false) const;

  /// Human-readable summary table (one row per run).
  std::string summary() const;
};

}  // namespace fbist::campaign
