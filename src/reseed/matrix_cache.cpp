#include "reseed/matrix_cache.h"

#include <unistd.h>

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

namespace fbist::reseed {

namespace fs = std::filesystem;

namespace {

/// FNV-1a 64-bit accumulator.  Every component is framed by a domain
/// tag and its length, so concatenation ambiguities (e.g. shifting a
/// byte between adjacent variable-length fields) change the hash.
struct Hasher {
  std::uint64_t h = 1469598103934665603ull;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void tag(char c) { byte(static_cast<std::uint8_t>(c)); }
};

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

MatrixCacheStats& MatrixCacheStats::operator+=(const MatrixCacheStats& o) {
  hits += o.hits;
  disk_hits += o.disk_hits;
  misses += o.misses;
  stores += o.stores;
  evictions += o.evictions;
  return *this;
}

MatrixCache::MatrixCache(MatrixCacheOptions opts) : opts_(std::move(opts)) {}

MatrixCache::Key MatrixCache::key(const netlist::CompiledCircuit& cc,
                                  const fault::FaultList& faults,
                                  const tpg::Tpg& tpg,
                                  const std::vector<tpg::Triplet>& candidates) {
  Hasher hs;

  // Circuit structure: per-net gate type and fanin in net-id order,
  // plus the PI/PO orderings the simulator reads and observes through.
  hs.tag('C');
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
  hs.tag('F');
  hs.u64(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    hs.u64(faults[i].net);
    hs.byte(faults[i].stuck_value ? 1 : 0);
  }

  // TPG semantics: how triplets expand into pattern sequences.
  hs.tag('T');
  hs.str(tpg.name());
  hs.u64(tpg.width());
  hs.str(tpg.config_string());

  // Candidate triplets: matrix rows, in row order.
  hs.tag('R');
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

std::shared_ptr<const cover::DetectionMatrix> MatrixCache::lookup(Key k) {
  // Lookup latency lands in an outcome-specific histogram — a memory
  // hit (~100ns), a disk hit (ms) and a miss that triggers a rebuild
  // (seconds downstream) are different regimes and averaging them
  // would say nothing.
  OBS_HISTOGRAM(h_hit, "matrix_cache.hit_ns");
  OBS_HISTOGRAM(h_disk_hit, "matrix_cache.disk_hit_ns");
  OBS_HISTOGRAM(h_miss, "matrix_cache.miss_ns");
  [[maybe_unused]] const std::uint64_t start = obs::Clock::now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(k);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++stats_.hits;
      OBS_OBSERVE(h_hit, obs::Clock::now_ns() - start);
      return it->second->matrix;
    }
  }
  // Disk tier, read outside the lock (file I/O may be slow and the
  // result is immutable either way).  Reads go through the guarded I/O
  // layer — transient failures (or injected ones, "cache.disk_read")
  // retry with backoff; repeated give-ups trip the breaker and the
  // tier turns off.  A blob that *reads* but does not *parse* is a
  // content problem, not a disk problem: it degrades to a miss without
  // charging the breaker, and the rebuild's store overwrites it.
  if (!opts_.dir.empty() && disk_breaker_.allowed()) {
    const std::string path = disk_path(k);
    std::error_code ec;
    if (fs::exists(path, ec)) {
      std::string text;
      bool read_ok = false;
      try {
        text = util::io::read_file("cache.disk_read", path);
        read_ok = true;
        disk_breaker_.record_success();
      } catch (const util::io::IoError& e) {
        disk_breaker_.record_failure();
        obs::diag(obs::Severity::kWarn, "matrix_cache",
                  "cannot read blob " + path + " (" + e.what() +
                      "), rebuilding");
      }
      if (read_ok) {
        try {
          auto m = std::make_shared<cover::DetectionMatrix>(
              matrix_from_string(text));
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.hits;
          ++stats_.disk_hits;
          OBS_INSTANT("disk_hit");
          OBS_OBSERVE(h_disk_hit, obs::Clock::now_ns() - start);
          const auto it = index_.find(k);  // raced promotion: reuse theirs
          if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return it->second->matrix;
          }
          if (opts_.max_memory_entries > 0) {
            lru_.push_front(Entry{k, m});
            index_[k] = lru_.begin();
            while (lru_.size() > opts_.max_memory_entries) {
              index_.erase(lru_.back().key);
              lru_.pop_back();
              ++stats_.evictions;
            }
          }
          return m;
        } catch (const std::runtime_error& e) {
          // Corrupt or future-version blob: fall through to a miss;
          // the rebuild's store overwrites it.
          obs::diag(obs::Severity::kWarn, "matrix_cache",
                    "unreadable blob " + path + " (" + e.what() +
                        "), rebuilding");
        }
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  OBS_OBSERVE(h_miss, obs::Clock::now_ns() - start);
  return nullptr;
}

void MatrixCache::store(Key k, std::shared_ptr<const cover::DetectionMatrix> m) {
  if (m == nullptr) return;
  OBS_HISTOGRAM(h_store, "matrix_cache.store_ns");
  [[maybe_unused]] const std::uint64_t start = obs::Clock::now_ns();
  bool write_disk = !opts_.dir.empty();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stores;
    const auto it = index_.find(k);
    if (it != index_.end()) {
      // Concurrent builders of the same key store identical content;
      // keep the first (already shared with its hitters).
      lru_.splice(lru_.begin(), lru_, it->second);
      write_disk = false;
    } else if (opts_.max_memory_entries > 0) {
      lru_.push_front(Entry{k, m});
      index_[k] = lru_.begin();
      while (lru_.size() > opts_.max_memory_entries) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
      }
    }
  }
  if (!write_disk || !disk_breaker_.allowed()) {
    OBS_OBSERVE(h_store, obs::Clock::now_ns() - start);
    return;
  }
  // Guarded atomic write ("cache.disk_write"): temp-then-rename keeps
  // concurrent readers off torn files (pid-qualified temp name, so
  // concurrent processes do not collide), transient failures retry
  // with backoff, and a give-up only costs durability — the disk tier
  // is best-effort, so an unwritable directory degrades the cache to
  // memory-only rather than failing the build.  Repeated give-ups trip
  // the breaker and later stores skip the disk entirely.
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  const std::string final_path = disk_path(k);
  try {
    util::io::write_file_atomic("cache.disk_write", final_path,
                                matrix_to_string(*m));
    disk_breaker_.record_success();
  } catch (const util::io::IoError& e) {
    disk_breaker_.record_failure();
    obs::diag(obs::Severity::kWarn, "matrix_cache",
              "cannot persist blob " + final_path + " (" + e.what() +
                  "), memory tier only");
  }
  OBS_OBSERVE(h_store, obs::Clock::now_ns() - start);
}

MatrixCacheStats MatrixCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
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
