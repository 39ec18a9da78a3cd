// Checkpointed campaign execution: per-run result blobs + shard merge.
//
// A campaign sweep is hours of work whose product — the Report — is
// position-addressed: every run owns a fixed slot in the spec's
// canonical expansion order.  That makes the completed RunResult the
// natural unit of crash recovery and scale-out, and this module gives
// it a durable form:
//
//  * CheckpointStore persists each completed run as one versioned text
//    blob ("fbist-ckpt v2", run-<position>.ckpt) in a directory,
//    written tmp-file-then-rename so a kill mid-write never leaves a
//    torn blob behind.  Every blob carries the *spec hash* — a content
//    hash of the canonical run list — plus its position and run
//    identity; on load, a blob from a different spec is rejected
//    loudly (the directory belongs to another sweep), while an
//    unreadable/torn blob is skipped with a stderr note and its run is
//    simply re-executed.
//
//  * CampaignSpec::shard(i, n) (spec.h) slices the canonical order
//    into n deterministic contiguous ranges, so a sweep can be split
//    across processes or hosts; shards writing into one directory (or
//    into per-shard directories) produce disjoint position sets.
//
//  * merge_checkpoints folds N checkpoint directories into one
//    complete Report, byte-identical to an uninterrupted single-process
//    run of the same spec.  Overlapping positions are fine (checkpoint
//    content is deterministic, the first valid blob wins); a missing
//    position fails with a message naming the run, because an
//    incomplete merge is an operator error, not a result.
//
// The runner (runner.h) wires this in behind
// CampaignOptions::checkpoint_dir: on startup it loads valid blobs,
// skips their runs (circuits whose runs are all checkpointed are never
// even prepared), fans out only the remainder, and writes each blob
// from the completing run's own task — off any shared lock.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/report.h"
#include "campaign/spec.h"
#include "util/breaker.h"

namespace fbist::campaign {

/// Content hash (64-bit FNV-1a) of the spec's canonical run list — run
/// count plus every run's circuit / TPG / T / solver in expansion
/// order — and of every pipeline option that changes a run's result
/// (ATPG budgets, escalation and seed, builder seed and sigma sharing,
/// reduction, node budget and trimming).  Two specs that expand to the
/// same runs under the same options share a hash — and may share
/// checkpoint directories; anything else is rejected.
std::uint64_t spec_hash(const CampaignSpec& spec);

/// The hash as the 16-lowercase-hex-digit string used in blobs.
std::string spec_hash_hex(std::uint64_t h);

/// One parsed checkpoint blob.
struct CheckpointRecord {
  std::uint64_t spec = 0;       // spec hash the blob was written under
  std::size_t position = 0;     // canonical run position
  std::size_t total_runs = 0;   // run count of the writing spec
  RunResult result;             // includes the run's RunSpec identity
};

/// The codec of one run result ("fbist-ckpt v2" — v2 added the
/// redundant / sat_detected counts; v1 blobs read as corrupt and are
/// re-executed).  checkpoint_from_string throws std::runtime_error
/// with a line-numbered message on malformed input and a
/// version-naming message on a future-version blob.  CheckpointStore
/// moves the text to and from disk through util::io.
std::string checkpoint_to_string(const CheckpointRecord& rec);
CheckpointRecord checkpoint_from_string(const std::string& text);

/// A directory of per-run checkpoint blobs for one spec.
class CheckpointStore {
 public:
  /// Opens `dir` (creating it if needed) for a spec whose canonical
  /// expansion is `runs` (the full expansion, not a shard's slice).
  /// Throws std::runtime_error when the directory cannot be created.
  /// Opening also sweeps stale `*.ckpt.tmp.<pid>` files left behind by
  /// killed writers — temps whose pid is dead (and not ours) are
  /// removed and counted; without the sweep they accumulate forever
  /// across kill/resume cycles.
  CheckpointStore(std::string dir, const CampaignSpec& spec);

  const std::string& dir() const { return dir_; }
  std::uint64_t hash() const { return hash_; }

  /// Atomically persists `result` for canonical position `pos`
  /// (tmp-file + rename; the tmp name is pid-qualified so concurrent
  /// shard processes sharing the directory never collide).  Throws
  /// std::runtime_error when the blob cannot be written.
  void write(std::size_t pos, const RunResult& result);

  /// Scans the directory and returns every valid checkpointed result,
  /// keyed by canonical position.  An unreadable or torn blob is
  /// skipped with a stderr note and counted (its run re-executes and
  /// its blob is rewritten); a blob whose spec hash, position range or
  /// run identity does not match this store's spec throws
  /// std::runtime_error — the directory holds a different sweep, and
  /// silently mixing results would corrupt the report.
  std::unordered_map<std::size_t, RunResult> load();

  /// Blobs written by this store / corrupt blobs skipped by load().
  std::uint64_t written() const;
  std::uint64_t corrupt() const;
  /// Stale dead-writer temp files removed by the opening sweep.
  std::uint64_t stale_tmp_removed() const { return stale_removed_; }

  /// True once repeated write failures tripped the breaker and
  /// checkpointing degraded to warn-and-continue: later write() calls
  /// are silent no-ops, durability is lost, the sweep completes.
  bool degraded() const { return breaker_.tripped(); }

  /// Path of position `pos`'s blob (run-<pos>.ckpt inside dir).
  std::string blob_path(std::size_t pos) const;

 private:
  void sweep_stale_temps();

  std::string dir_;
  std::uint64_t hash_ = 0;
  std::vector<RunSpec> runs_;  // full canonical expansion
  std::uint64_t stale_removed_ = 0;  // set once, in the constructor

  mutable std::mutex mu_;
  std::uint64_t written_ = 0;
  std::uint64_t corrupt_ = 0;

  /// Trips after consecutive write give-ups; see degraded().
  util::CircuitBreaker breaker_{
      "checkpoint store", "checkpointing disabled, durability lost"};
};

/// Folds the checkpoint sets under `dirs` into the complete report of
/// `spec`, byte-identical (canonical JSON) to an uninterrupted run.
/// Directories may overlap (first valid blob per position wins) but
/// together must cover every canonical position; a missing run throws
/// std::runtime_error naming it.  Corrupt blobs are skipped exactly as
/// in CheckpointStore::load and counted in the report's checkpoint
/// stats.
Report merge_checkpoints(const CampaignSpec& spec,
                         const std::vector<std::string>& dirs);

}  // namespace fbist::campaign
