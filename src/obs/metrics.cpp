#include "obs/metrics.h"

#include <algorithm>

#include "util/json.h"

namespace fbist::obs {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return mine;
}

Histogram::Data Histogram::data() const {
  Data d;
  for (const auto& sh : shards_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t n = sh.buckets[b].load(std::memory_order_relaxed);
      d.buckets[b] += n;
      d.count += n;
    }
    d.sum += sh.sum.load(std::memory_order_relaxed);
  }
  return d;
}

void Histogram::reset() {
  for (auto& sh : shards_) {
    for (auto& b : sh.buckets) b.store(0, std::memory_order_relaxed);
    sh.sum.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t Histogram::Data::quantile_bound(double q) const {
  if (count == 0) return 0;
  const double want = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (static_cast<double>(seen) >= want && buckets[b] != 0) {
      return bucket_bound(b);
    }
  }
  return bucket_bound(kBuckets - 1);
}

Histogram::Data& Histogram::Data::operator-=(const Data& o) {
  count -= std::min(count, o.count);
  sum -= std::min(sum, o.sum);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    buckets[b] -= std::min(buckets[b], o.buckets[b]);
  }
  return *this;
}

MetricsSnapshot MetricsSnapshot::delta_from(const MetricsSnapshot& base) const {
  // Both sides are name-ordered (Registry::snapshot iterates maps), so
  // the subtraction is a linear merge.
  MetricsSnapshot out = *this;
  {
    auto bit = base.counters.begin();
    for (auto& [name, v] : out.counters) {
      while (bit != base.counters.end() && bit->first < name) ++bit;
      if (bit != base.counters.end() && bit->first == name) {
        v -= std::min(v, bit->second);
      }
    }
  }
  // Gauges report the end value, not a delta — a gauge is a level.
  {
    auto bit = base.histograms.begin();
    for (auto& [name, d] : out.histograms) {
      while (bit != base.histograms.end() && bit->first < name) ++bit;
      if (bit != base.histograms.end() && bit->first == name) {
        d -= bit->second;
      }
    }
  }
  return out;
}

void write_metrics_json(util::JsonWriter& w, const MetricsSnapshot& s) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : s.counters) {
    w.key(name);
    w.value(v);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : s.gauges) {
    w.key(name);
    if (v < 0) {
      // JsonWriter emits unsigned/int only; gauges are small levels, so
      // int is wide enough in practice.
      w.value(static_cast<int>(v));
    } else {
      w.value(static_cast<std::uint64_t>(v));
    }
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, d] : s.histograms) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(d.count);
    w.key("sum");
    w.value(d.sum);
    w.key("mean");
    w.value_fixed(d.mean(), 1);
    w.key("p50");
    w.value(d.quantile_bound(0.50));
    w.key("p90");
    w.value(d.quantile_bound(0.90));
    w.key("p99");
    w.value(d.quantile_bound(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string metrics_to_json(const MetricsSnapshot& s) {
  util::JsonWriter w;
  w.begin_object();
  w.key("format");
  w.value("fbist-metrics");
  w.key("version");
  w.value(std::uint64_t{1});
  w.key("metrics");
  write_metrics_json(w, s);
  w.end_object();
  return w.str() + "\n";
}

// Never destroyed, for the same reason as Tracer::global(): worker
// threads bump counters until the scheduler joins them at exit.
Registry& Registry::global() {
  static Registry& instance = *new Registry;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(name, h->data());
  }
  return s;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace fbist::obs
