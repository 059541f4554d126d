#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/types.h"
#include "common/value.h"

namespace mps::obs {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(LatencyHistogramTest, BucketsSamplesByUpperEdge) {
  LatencyHistogram h({10.0, 100.0, 1000.0});
  h.observe(5.0);     // <= 10
  h.observe(10.0);    // <= 10 (edges are inclusive upper bounds)
  h.observe(50.0);    // <= 100
  h.observe(5000.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 5065.0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);  // overflow bucket
}

TEST(LatencyHistogramTest, RejectsBadEdges) {
  EXPECT_THROW(LatencyHistogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(LatencyHistogram({10.0, 10.0}), std::invalid_argument);
  EXPECT_THROW(LatencyHistogram({10.0, 5.0}), std::invalid_argument);
}

TEST(LatencyHistogramTest, QuantileInterpolatesWithinBucket) {
  LatencyHistogram h({10.0, 20.0});
  // Ten samples in (0, 10]: the median sits in the middle of that bucket.
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(LatencyHistogramTest, QuantileOverflowReportsLastEdge) {
  LatencyHistogram h({10.0});
  h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
}

TEST(LatencyHistogramTest, QuantileOnEmptyIsZero) {
  LatencyHistogram h({10.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogramTest, DefaultEdgesSpanMillisecondsToHours) {
  const auto& edges = LatencyHistogram::default_latency_edges_ms();
  ASSERT_GE(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges.front(), 1.0);
  EXPECT_DOUBLE_EQ(edges.back(), static_cast<double>(hours(24)));
  for (std::size_t i = 1; i < edges.size(); ++i)
    EXPECT_LT(edges[i - 1], edges[i]);
}

TEST(RegistryTest, MetricsCreatedOnFirstAccessAndStable) {
  Registry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);  // same object: hoisted references stay valid
  EXPECT_TRUE(registry.has_counter("x"));
  EXPECT_FALSE(registry.has_counter("y"));
  EXPECT_FALSE(registry.has_gauge("x"));  // namespaces are per-kind
  registry.gauge("g");
  registry.histogram("h");
  EXPECT_EQ(registry.size(), 3u);
}

TEST(RegistryTest, CustomEdgesOnlyApplyToFirstCreation) {
  Registry registry;
  LatencyHistogram& h = registry.histogram("h", {1.0, 2.0});
  EXPECT_EQ(h.bucket_count(), 3u);  // 2 edges + overflow
  LatencyHistogram& again = registry.histogram("h", {5.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bucket_count(), 3u);  // redundant edges ignored
}

TEST(RegistryTest, SnapshotRoundTripsValues) {
  Registry registry;
  registry.counter("broker.published").inc(7);
  registry.gauge("docstore.documents").set(12.0);
  registry.histogram("client.delay_ms", {10.0, 100.0}).observe(42.0);

  MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "broker.published");
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 12.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& h = snap.histograms[0].second;
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.sum, 42.0);
  ASSERT_EQ(h.edges.size(), 2u);
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[1], 1u);
}

TEST(RegistryTest, SnapshotAndResetZeroesButKeepsObjects) {
  Registry registry;
  Counter& c = registry.counter("c");
  c.inc(5);
  registry.gauge("g").set(1.0);
  registry.histogram("h").observe(10.0);

  MetricsSnapshot snap = registry.snapshot_and_reset();
  EXPECT_EQ(snap.counters[0].second, 5u);
  // Values are zeroed, the hoisted reference still works.
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(registry.snapshot().counters[0].second, 1u);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauges[0].second, 0.0);
  EXPECT_EQ(registry.snapshot().histograms[0].second.count, 0u);
}

TEST(SourcesTest, CounterReadsWhatTheFieldCountedSinceAttach) {
  Registry registry;
  std::uint64_t field = 5;  // counted before attaching: not the registry's
  Sources sources;
  sources.counter(registry, "c", field);
  EXPECT_TRUE(registry.has_counter("c"));
  EXPECT_EQ(registry.counter("c").value(), 0u);
  field += 3;
  registry.counter("c").inc(2);  // direct increments still add
  EXPECT_EQ(registry.counter("c").value(), 5u);
}

TEST(SourcesTest, SumsEverySourceOfAName) {
  Registry registry;
  std::uint64_t a = 0, b = 0;
  Sources sa, sb;
  sa.counter(registry, "c", a);
  sb.counter(registry, "c", b);
  a += 2;
  b += 3;
  EXPECT_EQ(registry.counter("c").value(), 5u);
  EXPECT_EQ(registry.snapshot().counters[0].second, 5u);
}

TEST(SourcesTest, DetachKeepsTheCountAndNeverGoesBackwards) {
  Registry registry;
  std::uint64_t field = 0;
  {
    Sources sources;
    sources.counter(registry, "c", field);
    field = 4;
  }  // destroyed: the final count folds into the registry
  EXPECT_EQ(registry.counter("c").value(), 4u);
  field = 100;  // no longer read
  EXPECT_EQ(registry.counter("c").value(), 4u);

  Sources again;
  again.counter(registry, "c", field);  // re-attach: new baseline
  field = 101;
  again.detach();
  again.detach();  // idempotent
  EXPECT_EQ(registry.counter("c").value(), 5u);
}

TEST(SourcesTest, ResetRebasesWithoutWritingTheField) {
  Registry registry;
  std::uint64_t field = 0;
  Sources sources;
  sources.counter(registry, "c", field);
  field = 7;
  registry.reset();
  EXPECT_EQ(field, 7u);
  EXPECT_EQ(registry.counter("c").value(), 0u);
  field = 9;
  EXPECT_EQ(registry.snapshot_and_reset().counters[0].second, 2u);
  sources.detach();
  EXPECT_EQ(registry.counter("c").value(), 0u);
}

TEST(SourcesTest, GaugeViewsSumOverLiveInstances) {
  Registry registry;
  std::size_t a = 2, b = 3;
  Sources sb;
  {
    Sources sa;
    sa.gauge(registry, "g", [&a] { return static_cast<double>(a); });
    sb.gauge(registry, "g", [&b] { return static_cast<double>(b); });
    EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 5.0);
    a = 10;
    EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 13.0);
  }  // a gone: its size leaves the total
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 3.0);
  registry.reset();  // a view is live state, not an accumulation
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 3.0);
}

TEST(SourcesTest, RegistryMayBeDestroyedFirst) {
  std::uint64_t field = 0;
  Sources sources;
  {
    Registry registry;
    sources.counter(registry, "c", field);
    sources.gauge(registry, "g", [] { return 1.0; });
    field = 3;
  }
  field = 4;
  sources.detach();  // nothing left to fold into
}

TEST(SourcesTest, CopyStartsDetached) {
  Registry registry;
  std::uint64_t field = 0;
  auto original = std::make_unique<Sources>();
  original->counter(registry, "c", field);
  Sources copy = *original;
  field = 2;
  original.reset();
  field = 5;
  EXPECT_EQ(registry.counter("c").value(), 2u);
  copy.detach();
  EXPECT_EQ(registry.counter("c").value(), 2u);
}

TEST(ExporterTest, TextExportGolden) {
  Registry registry;
  registry.counter("broker.published").inc(42);
  registry.gauge("broker.queues").set(3.0);
  LatencyHistogram& h = registry.histogram("lat", {10.0, 100.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);

  // One line per metric, kind first, sorted by name within each kind.
  EXPECT_EQ(registry.export_text(),
            "counter broker.published 42\n"
            "gauge broker.queues 3\n"
            "histogram lat count=10 mean=5.000 p50=5.000 p90=9.000 "
            "p99=9.900\n");
}

TEST(ExporterTest, TextExportSortsByName) {
  Registry registry;
  registry.counter("b");
  registry.counter("a");
  EXPECT_EQ(registry.export_text(), "counter a 0\ncounter b 0\n");
}

TEST(ExporterTest, JsonExportGolden) {
  Registry registry;
  registry.counter("n").inc(2);
  registry.gauge("g").set(1.5);
  registry.histogram("h", {10.0}).observe(3.0);

  Value doc = registry.export_json();
  EXPECT_EQ(doc.find("counters")->get_int("n"), 2);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->get_double("g"), 1.5);
  const Value* h = doc.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->get_int("count"), 1);
  EXPECT_DOUBLE_EQ(h->get_double("sum"), 3.0);
  const Value* buckets = h->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(buckets->as_array()[0].get_double("le"), 10.0);
  EXPECT_EQ(buckets->as_array()[0].get_int("count"), 1);
  // The overflow bucket cannot carry +infinity in JSON.
  EXPECT_EQ(buckets->as_array()[1].get_string("le"), "+inf");
  EXPECT_EQ(buckets->as_array()[1].get_int("count"), 0);

  // The export round-trips through the JSON text form.
  Value parsed = Value::parse_json(doc.to_json());
  EXPECT_EQ(parsed.find("counters")->get_int("n"), 2);
}

}  // namespace
}  // namespace mps::obs
