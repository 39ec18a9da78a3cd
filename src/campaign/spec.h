// Declarative campaign specification.
//
// A campaign is the cross product the paper's tables are made of:
// a set of circuits (registry names and/or .bench file paths) crossed
// with TPG kinds, per-triplet evolution lengths T, and solver choices.
// The spec is pure data; campaign::run_campaign (runner.h) executes it
// on the shared scheduler, compiling + ATPG-ing each circuit exactly
// once and fanning its runs out over the prepared snapshot.
//
// Text format (line-oriented, '#' comments, whitespace-separated):
//
//   # sweep for Table 1
//   circuits c432 c880 s1238 path/to/custom.bench
//   tpgs     adder subtracter multiplier
//   cycles   16 64 256
//   solvers  exact
//
// Every key is optional except `circuits`; later lines of the same key
// append.  Defaults: tpgs=adder, cycles=64, solvers=exact.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.h"
#include "reseed/pipeline.h"
#include "tpg/tpg.h"

namespace fbist::campaign {

/// One fully resolved campaign run: a point of the cross product.
struct RunSpec {
  std::string circuit;  // registry name or .bench path
  tpg::TpgKind tpg = tpg::TpgKind::kAdder;
  std::size_t cycles = 64;
  reseed::SolverChoice solver = reseed::SolverChoice::kExact;
};

/// Display label, e.g. "c432/adder/T64/exact".
std::string run_label(const RunSpec& rs);

/// The declarative sweep.  expand() fixes the run order every consumer
/// (runner, report, JSON) observes: circuit-major, then TPG, then T,
/// then solver — so reports are comparable across worker counts.
struct CampaignSpec {
  std::vector<std::string> circuits;
  std::vector<tpg::TpgKind> tpgs{tpg::TpgKind::kAdder};
  std::vector<std::size_t> cycle_values{64};
  std::vector<reseed::SolverChoice> solvers{reseed::SolverChoice::kExact};
  /// Base options for every pipeline; the per-run solver choice
  /// overrides `pipeline.optimizer.solver`.
  reseed::PipelineOptions pipeline;

  /// Cross product in canonical order.
  std::vector<RunSpec> expand() const;

  /// Canonical run positions owned by shard `index` of `count`:
  /// contiguous balanced slices [⌊i·R/n⌋, ⌊(i+1)·R/n⌋) of the expansion
  /// order, so every position lands in exactly one shard and — the
  /// order being circuit-major — a circuit's runs mostly stay on one
  /// shard (each shard prepares only the circuits it touches).
  /// Deterministic: the same (spec, i, n) always yields the same slice.
  /// Throws std::invalid_argument when count == 0 or index >= count.
  std::vector<std::size_t> shard(std::size_t index, std::size_t count) const;

  /// Throws std::invalid_argument on an empty or degenerate spec, or on
  /// a T above cover::DetectionMatrix::kMaxCycles.
  void validate() const;
};

/// Name <-> enum helpers shared by the spec parser and the CLI.
tpg::TpgKind parse_tpg_kind(const std::string& name);
reseed::SolverChoice parse_solver(const std::string& name);
const char* solver_name(reseed::SolverChoice s);

/// Parses the text format above; throws std::runtime_error with a
/// line-numbered message on malformed input.
CampaignSpec parse_spec_string(const std::string& text);
/// Reads a spec file through the guarded I/O layer ("spec.read"
/// failpoint; transient read failures retry before giving up).
CampaignSpec parse_spec_file(const std::string& path);

/// Parses a `--shard I/N` argument (1-based index) into the 0-based
/// (index, count) pair CampaignOptions carries.  Throws
/// std::runtime_error with a message naming the expected form and the
/// specific violation: zero count, zero index (it is 1-based), index
/// out of range, or unparsable input.
std::pair<std::size_t, std::size_t> parse_shard_arg(const std::string& arg);

/// Parses a `--run-timeout MS` argument: a positive integer
/// millisecond count.  Throws std::runtime_error on zero, negative or
/// non-numeric input, naming what was expected.
std::uint64_t parse_run_timeout_arg(const std::string& arg);

/// True when `arg` names a .bench file rather than a registry circuit.
bool is_bench_path(const std::string& arg);
/// Loads a registry circuit or parses a .bench file (scan-flattened).
/// The file is read through the guarded I/O layer ("spec.read"), so
/// an unreadable path fails with the errno reason, e.g. "cannot open
/// x.bench: No such file or directory".
netlist::Netlist load_circuit(const std::string& arg);

}  // namespace fbist::campaign
