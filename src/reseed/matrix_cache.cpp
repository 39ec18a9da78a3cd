#include "reseed/matrix_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/clock.h"
#include "obs/diag.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reseed/serialize.h"
#include "util/guarded_io.h"
#include "util/rng.h"

namespace fbist::reseed {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSuffix = ".dmx";

bool parse_key_hex(const std::string& stem, MatrixCache::Key* out) {
  if (stem.size() != 16) return false;
  MatrixCache::Key k = 0;
  for (const char c : stem) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    k = (k << 4) | static_cast<MatrixCache::Key>(digit);
  }
  *out = k;
  return true;
}

}  // namespace

MatrixCache::MatrixCache(MatrixCacheOptions opts) : opts_(std::move(opts)) {
  if (opts_.dir.empty()) {
    throw std::invalid_argument("matrix cache: empty directory");
  }
}

MatrixCache::Key MatrixCache::key(const netlist::CompiledCircuit& cc,
                                  const fault::FaultList& faults,
                                  const tpg::Tpg& tpg,
                                  const std::vector<tpg::Triplet>& candidates) {
  // Every component is framed by a domain tag and its length, so
  // concatenation ambiguities (e.g. shifting a byte between adjacent
  // variable-length fields) change the key.
  util::Fnv1a hs(util::Fnv1a::kShortBasis);

  // Circuit structure: per-net gate type and fanin in net-id order,
  // plus the PI/PO orderings the simulator reads and observes through.
  hs.byte('C');
  hs.u64(cc.num_nets());
  for (netlist::NetId n = 0; n < cc.num_nets(); ++n) {
    hs.byte(static_cast<std::uint8_t>(cc.type(n)));
    const netlist::Span<netlist::NetId> fin = cc.fanin(n);
    hs.u64(fin.size());
    for (const netlist::NetId f : fin) hs.u64(f);
  }
  hs.u64(cc.inputs().size());
  for (const netlist::NetId n : cc.inputs()) hs.u64(n);
  hs.u64(cc.outputs().size());
  for (const netlist::NetId n : cc.outputs()) hs.u64(n);

  // Fault list: matrix columns, in column order.
  hs.byte('F');
  hs.u64(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    hs.u64(faults[i].net);
    hs.byte(faults[i].stuck_value ? 1 : 0);
  }

  // TPG semantics: how triplets expand into pattern sequences.
  hs.byte('T');
  hs.str(tpg.name());
  hs.u64(tpg.width());
  hs.str(tpg.config_string());

  // Candidate triplets: matrix rows, in row order.
  hs.byte('R');
  hs.u64(candidates.size());
  for (const tpg::Triplet& t : candidates) {
    hs.u64(t.delta.bits());
    for (const std::uint64_t w : t.delta.words()) hs.u64(w);
    hs.u64(t.sigma.bits());
    for (const std::uint64_t w : t.sigma.words()) hs.u64(w);
    hs.u64(t.cycles);
  }
  return hs.h;
}

std::optional<cover::DetectionMatrix> MatrixCache::lookup(Key k) {
  // Lookup latency lands in an outcome-specific histogram — a hit
  // (a parse, ms) and a miss that triggers a rebuild (seconds
  // downstream) are different regimes and averaging them would say
  // nothing.
  OBS_HISTOGRAM(h_hit, "matrix_cache.hit_ns");
  OBS_HISTOGRAM(h_miss, "matrix_cache.miss_ns");
  [[maybe_unused]] const std::uint64_t start = obs::Clock::now_ns();
  // Reads go through the guarded I/O layer — transient failures (or
  // injected ones, "cache.disk_read") retry with backoff; repeated
  // give-ups trip the breaker and the cache turns off.  A blob that
  // *reads* but does not *parse* is a content problem, not a disk
  // problem: it degrades to a miss without charging the breaker, and
  // the rebuild's store overwrites it.
  const std::string path = disk_path(k);
  std::error_code ec;
  if (disk_breaker_.allowed() && fs::exists(path, ec)) {
    try {
      const std::string text = util::io::read_file("cache.disk_read", path);
      disk_breaker_.record_success();
      cover::DetectionMatrix m = matrix_from_string(text);
      ++hits_;
      OBS_INSTANT("matrix_cache_hit");
      OBS_OBSERVE(h_hit, obs::Clock::now_ns() - start);
      return m;
    } catch (const util::io::IoError& e) {
      disk_breaker_.record_failure();
      obs::diag(obs::Severity::kWarn, "matrix_cache",
                "cannot read blob " + path + " (" + e.what() +
                    "), rebuilding");
    } catch (const std::runtime_error& e) {
      // Corrupt or future-version blob: fall through to a miss.
      obs::diag(obs::Severity::kWarn, "matrix_cache",
                "unreadable blob " + path + " (" + e.what() +
                    "), rebuilding");
    }
  }
  ++misses_;
  OBS_OBSERVE(h_miss, obs::Clock::now_ns() - start);
  return std::nullopt;
}

void MatrixCache::store(Key k, const cover::DetectionMatrix& m) {
  OBS_HISTOGRAM(h_store, "matrix_cache.store_ns");
  [[maybe_unused]] const std::uint64_t start = obs::Clock::now_ns();
  ++stores_;
  if (disk_breaker_.allowed()) {
    // Guarded atomic write ("cache.disk_write"): temp-then-rename keeps
    // concurrent readers off torn files (pid-qualified temp name, so
    // concurrent processes do not collide), transient failures retry
    // with backoff, and a give-up only costs reuse — the cache is best
    // effort, so an unwritable directory never fails the build.
    // Repeated give-ups trip the breaker and later stores skip the
    // disk entirely.
    std::error_code ec;
    fs::create_directories(opts_.dir, ec);
    const std::string path = disk_path(k);
    try {
      util::io::write_file_atomic("cache.disk_write", path,
                                  matrix_to_string(m));
      disk_breaker_.record_success();
    } catch (const util::io::IoError& e) {
      disk_breaker_.record_failure();
      obs::diag(obs::Severity::kWarn, "matrix_cache",
                "cannot persist blob " + path + " (" + e.what() +
                    "), not cached");
    }
  }
  OBS_OBSERVE(h_store, obs::Clock::now_ns() - start);
}

MatrixCacheStats MatrixCache::stats() const {
  return {hits_.load(), misses_.load(), stores_.load()};
}

std::vector<MatrixCache::DiskEntry> MatrixCache::list_dir(
    const std::string& dir) {
  std::vector<DiskEntry> entries;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return entries;
  for (const fs::directory_entry& de : it) {
    const fs::path& p = de.path();
    if (p.extension() != kSuffix) continue;
    Key k;
    if (!parse_key_hex(p.stem().string(), &k)) continue;
    DiskEntry e;
    e.key = k;
    e.path = p.string();
    e.bytes = de.file_size(ec);
    if (ec) e.bytes = 0;
    entries.push_back(std::move(e));
  }
  std::sort(entries.begin(), entries.end(),
            [](const DiskEntry& a, const DiskEntry& b) { return a.key < b.key; });
  return entries;
}

bool MatrixCache::evict_file(const std::string& dir, Key k) {
  std::error_code ec;
  return fs::remove(fs::path(dir) / (key_hex(k) + kSuffix), ec) && !ec;
}

std::size_t MatrixCache::clear_dir(const std::string& dir) {
  std::size_t removed = 0;
  for (const DiskEntry& e : list_dir(dir)) {
    std::error_code ec;
    if (fs::remove(e.path, ec) && !ec) ++removed;
  }
  return removed;
}

std::string MatrixCache::key_hex(Key k) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(k));
  return std::string(buf);
}

std::string MatrixCache::disk_path(Key k) const {
  return (fs::path(opts_.dir) / (key_hex(k) + kSuffix)).string();
}

}  // namespace fbist::reseed
