#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace fbist::obs {
namespace {

TEST(Metrics, CounterSumsAcrossThreads) {
  // Shards partition the adds exactly: the snapshot total is the true
  // total regardless of which shard each thread landed on.
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, ScopedNsAddsElapsedTimeToCounter) {
  Counter c;
  c.add(7);
  {
    ScopedNs timer(c);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Added on top of the existing value, at least the slept time.
  EXPECT_GE(c.value(), 7u + 2'000'000u);
}

TEST(Metrics, GaugeKeepsLastValue) {
  Gauge g;
  g.set(42);
  g.add(-2);
  EXPECT_EQ(g.value(), 40);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, HistogramBucketsByBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u - 0u);

  Histogram h;
  h.observe(0);
  h.observe(3);
  h.observe(3);
  h.observe(1000);
  const Histogram::Data d = h.data();
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.sum, 1006u);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(d.buckets[10], 1u);
  EXPECT_DOUBLE_EQ(d.mean(), 1006.0 / 4.0);
}

TEST(Metrics, HistogramQuantileQuotesBucketBound) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(100);   // bucket 7, bound 128
  for (int i = 0; i < 10; ++i) h.observe(5000);  // bucket 13, bound 8192
  const Histogram::Data d = h.data();
  EXPECT_EQ(d.quantile_bound(0.50), 128u);
  EXPECT_EQ(d.quantile_bound(0.90), 128u);
  EXPECT_EQ(d.quantile_bound(0.99), 8192u);
}

TEST(Metrics, HistogramSumsAcrossThreads) {
  Histogram h;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < 1000; ++i) h.observe(7);
    });
  }
  for (auto& t : threads) t.join();
  const Histogram::Data d = h.data();
  EXPECT_EQ(d.count, 8000u);
  EXPECT_EQ(d.sum, 56000u);
  EXPECT_EQ(d.buckets[3], 8000u);
}

TEST(Metrics, RegistryInternsByName) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &reg.counter("y"));
  // Counter/gauge/histogram namespaces are independent.
  reg.gauge("x").set(5);
  reg.histogram("x").observe(9);
  a.add(3);

  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "x");  // name-ordered
  EXPECT_EQ(s.counters[0].second, 3u);
  EXPECT_EQ(s.counters[1].first, "y");
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].second, 5);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].second.count, 1u);
}

TEST(Metrics, SnapshotDeltaSubtractsCountersAndHistograms) {
  Registry reg;
  reg.counter("c").add(10);
  reg.gauge("g").set(3);
  reg.histogram("h").observe(100);
  const MetricsSnapshot before = reg.snapshot();

  reg.counter("c").add(5);
  reg.counter("new").add(2);  // absent from the base: passes through
  reg.gauge("g").set(7);
  reg.histogram("h").observe(100);
  reg.histogram("h").observe(3);
  const MetricsSnapshot delta = reg.snapshot().delta_from(before);

  ASSERT_EQ(delta.counters.size(), 2u);
  EXPECT_EQ(delta.counters[0].first, "c");
  EXPECT_EQ(delta.counters[0].second, 5u);
  EXPECT_EQ(delta.counters[1].first, "new");
  EXPECT_EQ(delta.counters[1].second, 2u);
  // A gauge is a level, not a rate: the delta keeps the end value.
  EXPECT_EQ(delta.gauges[0].second, 7);
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].second.count, 2u);
  EXPECT_EQ(delta.histograms[0].second.sum, 103u);
  EXPECT_EQ(delta.histograms[0].second.buckets[7], 1u);
  EXPECT_EQ(delta.histograms[0].second.buckets[2], 1u);
}

TEST(Metrics, RegistryResetZeroesEverything) {
  Registry reg;
  reg.counter("c").add(4);
  reg.gauge("g").set(4);
  reg.histogram("h").observe(4);
  reg.reset();
  const MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counters[0].second, 0u);
  EXPECT_EQ(s.gauges[0].second, 0);
  EXPECT_EQ(s.histograms[0].second.count, 0u);
}

TEST(Metrics, JsonIsDeterministicAndNameOrdered) {
  Registry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.histogram("lat").observe(100);
  const std::string json = metrics_to_json(reg.snapshot());
  // Interned out of order, serialized in name order.
  EXPECT_NE(json.find("\"a\": 1"), std::string::npos);
  EXPECT_LT(json.find("\"a\": 1"), json.find("\"b\": 2"));
  EXPECT_NE(json.find("\"format\": \"fbist-metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 128"), std::string::npos);
  EXPECT_EQ(json, metrics_to_json(reg.snapshot()));
}

}  // namespace
}  // namespace fbist::obs
