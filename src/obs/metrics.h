// Sharded metrics registry: counters, gauges, log-scale histograms.
//
// The instrumented layers sit on the hottest paths in the repo — the
// PPSFP cone-walk loop, the matrix cache, the work-stealing scheduler —
// so the storage discipline is: a hot-path increment costs exactly one
// *uncontended* relaxed atomic add.  Each Counter/Histogram owns a
// small fixed array of cache-line-padded shards; a thread hashes to a
// shard once (thread-local, assigned round-robin on first use) and all
// its increments land there.  Nothing is aggregated, locked, or even
// read on the hot path — shards are summed only when a snapshot is
// taken (campaign end, --metrics serialization).
//
// Totals are exact: shards partition the adds, and a snapshot sums
// them.  What sharding gives up is a consistent instantaneous view
// across metrics — irrelevant for post-run reporting.
//
// Metric objects are interned by name in a Registry and live forever
// (instrumented sites cache `static Counter& c = ...;` — a one-time
// mutex-guarded intern, then pure shard adds).  Snapshots iterate in
// name order, so serialized metrics are deterministically ordered.
//
// The compile-time kill switch (FBIST_OBSERVABILITY=0, see obs/trace.h)
// empties the OBS_* convenience macros; the classes themselves always
// compile, so report plumbing never needs #if guards.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.h"

#ifndef FBIST_OBSERVABILITY
#define FBIST_OBSERVABILITY 1
#endif

namespace fbist::util {
class JsonWriter;
}

namespace fbist::obs {

/// Shards per metric.  Enough that concurrent workers rarely collide
/// (the container tops out well below this), small enough that a
/// histogram stays a few KiB.
constexpr std::size_t kMetricShards = 16;

/// This thread's shard index, assigned round-robin on first use.
std::size_t shard_index();

namespace detail {
/// One cache-line-padded relaxed accumulator.
struct alignas(64) Shard {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

/// Monotonic counter.  add() is one relaxed add on the caller's shard.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::Shard shards_[kMetricShards];
};

/// Stopwatch over a counter: adds the nanoseconds from construction to
/// destruction.  Sums exact per-phase times where a child span would
/// take the time out of its parent span's self time.
class ScopedNs {
 public:
  explicit ScopedNs(Counter& c) : c_(c), start_(Clock::now_ns()) {}
  ~ScopedNs() { c_.add(Clock::now_ns() - start_); }

  ScopedNs(const ScopedNs&) = delete;
  ScopedNs& operator=(const ScopedNs&) = delete;

 private:
  Counter& c_;
  std::uint64_t start_;
};

/// Last-written value (queue depth, worker count).  Gauges
/// sit off the hot path, so a single relaxed cell suffices.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram for latency/size samples spanning orders of
/// magnitude (a cache hit is ~100ns, a cold matrix build ~1s).  Bucket
/// b counts samples with bit_width(v) == b, i.e. v in [2^(b-1), 2^b);
/// bucket 0 counts zeros.  observe() is two relaxed adds (bucket +
/// sum) on the caller's shard.
class Histogram {
 public:
  // Bucket b = bit_width(v), so b spans 0 (zeros) through 64 (values
  // with the top bit set) — 65 buckets, not 64.
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v) {
    const std::size_t b = bucket_of(v);
    auto& sh = shards_[shard_index()];
    sh.buckets[b].fetch_add(1, std::memory_order_relaxed);
    sh.sum.fetch_add(v, std::memory_order_relaxed);
  }

  static std::size_t bucket_of(std::uint64_t v) {
    return v == 0 ? 0 : 64 - static_cast<std::size_t>(__builtin_clzll(v));
  }
  /// Upper bound (exclusive) of bucket b — the value quantiles quote.
  static std::uint64_t bucket_bound(std::size_t b) {
    return b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b);
  }

  struct Data {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t buckets[kBuckets] = {};

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Upper bound of the bucket holding quantile q (q in [0,1]).
    std::uint64_t quantile_bound(double q) const;
    Data& operator-=(const Data& o);
  };
  Data data() const;
  void reset();

 private:
  struct alignas(64) HistShard {
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
  };
  HistShard shards_[kMetricShards];
};

/// Aggregated point-in-time view, name-ordered.  Supports subtraction
/// so a campaign can report its own delta of the process-wide registry
/// (counters/histograms subtract; gauges keep the end value).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, Histogram::Data>> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// this - base, matched by name (names absent from base pass through).
  MetricsSnapshot delta_from(const MetricsSnapshot& base) const;
};

/// Serializes a snapshot into an open JSON object position: counters
/// and gauges as name->value maps, histograms as {count, sum, mean_ns
/// and log-bucket quantile bounds}.  Deterministic field order (names
/// are pre-sorted by the snapshot).
void write_metrics_json(util::JsonWriter& w, const MetricsSnapshot& s);

/// A standalone metrics document (the `--metrics FILE` artifact).
std::string metrics_to_json(const MetricsSnapshot& s);

/// Interns metrics by name.  Lookup takes a mutex — instrumented sites
/// cache the returned reference in a function-local static, so the lock
/// is paid once per site per process.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Sums every shard of every metric; name-ordered.
  MetricsSnapshot snapshot() const;
  /// Zeroes every metric (tests/benches; campaigns use snapshot deltas).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fbist::obs

// Hot-path convenience macros, compiled to nothing when the
// observability layer is built out (FBIST_OBSERVABILITY=0).  `metric`
// is an expression yielding Counter&/Histogram& — typically a cached
// function-local static — evaluated only in observability builds.
#if FBIST_OBSERVABILITY
/// Declares a function-local static reference to an interned metric —
/// the intern (mutex) is paid once per site, every later pass is just
/// the shard add.  Pairs with OBS_COUNT/OBS_OBSERVE, which drop their
/// arguments entirely in compiled-out builds, so the variable may be
/// undeclared there.
#define OBS_COUNTER(var, name) \
  static ::fbist::obs::Counter& var = \
      ::fbist::obs::Registry::global().counter(name)
#define OBS_HISTOGRAM(var, name) \
  static ::fbist::obs::Histogram& var = \
      ::fbist::obs::Registry::global().histogram(name)
#define OBS_COUNT(metric, n) (metric).add(n)
#define OBS_OBSERVE(metric, v) (metric).observe(v)
/// Declares stopwatch `var`, which adds the nanoseconds until the end of
/// the enclosing block to counter `metric`.
#define OBS_SCOPED_NS(var, metric) ::fbist::obs::ScopedNs var(metric)
#else
#define OBS_COUNTER(var, name)
#define OBS_HISTOGRAM(var, name)
#define OBS_COUNT(metric, n) ((void)0)
#define OBS_OBSERVE(metric, v) ((void)0)
#define OBS_SCOPED_NS(var, metric)
#endif
