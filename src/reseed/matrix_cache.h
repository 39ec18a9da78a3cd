// Cross-process detection-matrix cache.
//
// Building the detection matrix — one PPSFP fault-sim campaign per
// candidate triplet — dominates pipeline cost even after lane packing.
// Within one process the campaign runner and the trade-off sweep
// already build each (circuit, TPG) once and derive every T from that
// build (reseed::at_cycles), so reuse is left only across processes:
// repeated campaigns against one directory skip fault simulation.
// Matrices are stored under a content hash of everything the build
// depends on, so equal inputs hit and *any* divergence (circuit
// structure, fault list, TPG semantics, candidate triplets — which
// subsume seed, T and the candidate-row set) misses.
//
// One tier, on disk (options.dir): "fbist-dmx v1" files named
// <16-hex-key>.dmx (reseed/serialize.h), written temp-then-rename so
// concurrent writers and readers never see a torn file.  Future-version
// files are rejected loudly by the serializer and treated as misses.
// Thread-safe: campaign workers share one cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cover/detection_matrix.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "tpg/tpg.h"
#include "tpg/triplet.h"
#include "util/breaker.h"

namespace fbist::reseed {

struct MatrixCacheOptions {
  /// Cache directory (required).  Created on first store if missing.
  std::string dir;
};

/// Monotonic counters.
struct MatrixCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
};

class MatrixCache {
 public:
  using Key = std::uint64_t;

  /// Throws std::invalid_argument when `opts.dir` is empty.
  explicit MatrixCache(MatrixCacheOptions opts);

  /// Content hash of a matrix build.  The candidate triplets enter
  /// verbatim (delta, sigma, cycles per row), so TPG seed, T and the
  /// candidate-row set are covered without naming them; the TPG's
  /// (name, width, config_string) cover the step semantics that expand
  /// triplets into patterns; the compiled structure and fault list
  /// cover what the simulator measures.
  static Key key(const netlist::CompiledCircuit& cc,
                 const fault::FaultList& faults, const tpg::Tpg& tpg,
                 const std::vector<tpg::Triplet>& candidates);

  /// Reads and parses the stored matrix, or returns nullopt (a
  /// recorded miss).
  std::optional<cover::DetectionMatrix> lookup(Key k);

  /// Writes the matrix under `k` (best effort: a failed write only
  /// costs reuse).  Concurrent stores of one key write equal content.
  void store(Key k, const cover::DetectionMatrix& m);

  MatrixCacheStats stats() const;

  /// True once repeated disk failures tripped the breaker and the cache
  /// turned off (lookups miss and stores skip the disk for the rest of
  /// the process; results are unaffected, only reuse is).
  bool disk_degraded() const { return disk_breaker_.tripped(); }

  /// One on-disk entry, for `fbist cache list`.
  struct DiskEntry {
    Key key = 0;
    std::string path;
    std::uintmax_t bytes = 0;
  };
  /// Lists a cache directory's entries (sorted by key; never throws —
  /// a missing directory lists empty).
  static std::vector<DiskEntry> list_dir(const std::string& dir);
  /// Removes one entry; returns false when absent.
  static bool evict_file(const std::string& dir, Key k);
  /// Removes every entry; returns the number removed.
  static std::size_t clear_dir(const std::string& dir);

  /// "0123456789abcdef" form used in file names and CLI output.
  static std::string key_hex(Key k);

 private:
  std::string disk_path(Key k) const;

  MatrixCacheOptions opts_;

  std::atomic<std::uint64_t> hits_{0}, misses_{0}, stores_{0};

  /// Trips after consecutive disk I/O failures (reads or writes); a
  /// tripped breaker turns the cache off for this process.
  util::CircuitBreaker disk_breaker_{"matrix-cache disk tier",
                                     "cache turns off"};
};

}  // namespace fbist::reseed
