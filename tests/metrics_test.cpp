// Metrics registry tests (common/metrics.h): naming discipline, label-set
// identity, lock-free mutation under contention, and the Prometheus text
// exposition.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/metrics.h"

namespace reese {
namespace {

using metrics::Labels;
using metrics::Registry;

TEST(Metrics, NamingConventionIsEnforced) {
  EXPECT_TRUE(metrics::valid_metric_name("reese_core_cycles_total"));
  EXPECT_TRUE(metrics::valid_metric_name("reese_service_queue_depth"));
  EXPECT_FALSE(metrics::valid_metric_name("core_cycles_total"));  // no prefix
  EXPECT_FALSE(metrics::valid_metric_name("reese_Core_cycles"));  // upper case
  EXPECT_FALSE(metrics::valid_metric_name("reese_core-cycles"));  // dash
  EXPECT_FALSE(metrics::valid_metric_name(""));

  EXPECT_TRUE(metrics::valid_label_name("kind"));
  EXPECT_TRUE(metrics::valid_label_name("exec_class"));
  EXPECT_FALSE(metrics::valid_label_name("9kind"));
  EXPECT_FALSE(metrics::valid_label_name("kind-of"));

  Registry registry;
  // Counters must end in _total; gauges and histograms must not.
  EXPECT_EQ(registry.counter("reese_test_things"), nullptr);
  EXPECT_NE(registry.counter("reese_test_things_total"), nullptr);
  EXPECT_EQ(registry.gauge("reese_test_depth_total"), nullptr);
  EXPECT_NE(registry.gauge("reese_test_depth"), nullptr);
  EXPECT_EQ(registry.histogram("reese_test_latency_total", {1.0}), nullptr);
  EXPECT_NE(registry.histogram("reese_test_latency", {1.0}), nullptr);
  // Invalid label names are refused at registration.
  EXPECT_EQ(registry.counter("reese_test_labeled_total", {{"bad-label", "x"}}),
            nullptr);
}

TEST(Metrics, LabelSetsAreDistinctSeries) {
  Registry registry;
  metrics::Counter* a =
      registry.counter("reese_test_cells_total", {{"kind", "experiment"}});
  metrics::Counter* b =
      registry.counter("reese_test_cells_total", {{"kind", "campaign"}});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  // Same (name, labels) -> the same stable handle.
  EXPECT_EQ(registry.counter("reese_test_cells_total",
                             {{"kind", "experiment"}}),
            a);
  a->inc(3);
  b->inc();
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(b->value(), 1u);
  EXPECT_EQ(registry.size(), 2u);
  // A name is owned by its first type: re-registering as a gauge fails.
  EXPECT_EQ(registry.gauge("reese_test_cells_total"), nullptr);
}

TEST(Metrics, GaugeSetAndAdd) {
  Registry registry;
  metrics::Gauge* gauge = registry.gauge("reese_test_level");
  ASSERT_NE(gauge, nullptr);
  gauge->set(2.5);
  gauge->add(1.25);
  gauge->add(-0.75);
  EXPECT_DOUBLE_EQ(gauge->value(), 3.0);
}

TEST(Metrics, HistogramObserveAndBulkImport) {
  Registry registry;
  metrics::HistogramMetric* histogram =
      registry.histogram("reese_test_cycles", {1.0, 4.0, 16.0});
  ASSERT_NE(histogram, nullptr);
  histogram->observe(0.5);   // bucket 0 (le 1)
  histogram->observe(4.0);   // bucket 1 (le 4, boundary is inclusive)
  histogram->observe(100.0); // +Inf
  EXPECT_EQ(histogram->count(), 3u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 104.5);
  const std::vector<u64> buckets = histogram->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);

  // Bulk import: O(1) mirroring of an external distribution, including a
  // sum-only charge with a zero count.
  histogram->add_bucket(2, 10, 100.0);
  histogram->add_bucket(3, 0, 7.5);
  EXPECT_EQ(histogram->count(), 13u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 212.0);
  EXPECT_EQ(histogram->bucket_counts()[2], 10u);

  // Mismatched or invalid bounds on re-registration are refused.
  EXPECT_EQ(registry.histogram("reese_test_cycles", {1.0, 2.0}), nullptr);
  EXPECT_EQ(registry.histogram("reese_test_bad", {}), nullptr);
  EXPECT_EQ(registry.histogram("reese_test_bad", {3.0, 2.0}), nullptr);
}

TEST(Metrics, ConcurrentIncrementsAreExact) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr u64 kIncrements = 20'000;
  metrics::Counter* counter = registry.counter("reese_test_contended_total");
  metrics::Gauge* gauge = registry.gauge("reese_test_contended");
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(gauge, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, counter, gauge] {
      for (u64 i = 0; i < kIncrements; ++i) {
        counter->inc();
        gauge->add(1.0);
        // Re-registration from many threads must return the same handle.
        EXPECT_EQ(registry.counter("reese_test_contended_total"), counter);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), kThreads * kIncrements);
  EXPECT_DOUBLE_EQ(gauge->value(),
                   static_cast<double>(kThreads * kIncrements));
}

TEST(Metrics, PrometheusExposition) {
  Registry registry;
  registry.counter("reese_test_jobs_total", {{"kind", "experiment"}},
                   "Jobs run")->inc(5);
  registry.counter("reese_test_jobs_total", {{"kind", "campaign"}})->inc(2);
  registry.gauge("reese_test_depth", {}, "Queue depth")->set(3.5);
  metrics::HistogramMetric* histogram = registry.histogram(
      "reese_test_latency", {1.0, 8.0}, {}, "Latency in cycles");
  histogram->observe(0.5);
  histogram->observe(2.0);
  histogram->observe(99.0);

  const std::string text = registry.prometheus();
  EXPECT_NE(text.find("# HELP reese_test_jobs_total Jobs run"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE reese_test_jobs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_jobs_total{kind=\"campaign\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_jobs_total{kind=\"experiment\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE reese_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("reese_test_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE reese_test_latency histogram"),
            std::string::npos);
  // Buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("reese_test_latency_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_latency_bucket{le=\"8\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_latency_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_latency_sum 101.5"), std::string::npos);
  EXPECT_NE(text.find("reese_test_latency_count 3"), std::string::npos);
  // Every exposition line is either a comment or "name{labels} value".
  usize lines = 0;
  for (usize start = 0; start < text.size();) {
    usize end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    if (line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.rfind("reese_", 0), 0u) << line;
  }
  EXPECT_GT(lines, 10u);
}

// ---------------------------------------------------------------------------
// Federation: merge_from + parse_prometheus (DESIGN.md §17). The
// coordinator scrapes every worker's /v1/metrics, parses the text back to
// samples and folds them into one registry with a worker label; these
// tests pin the merge semantics that make the federated export correct
// and deterministic.

/// A snapshot shaped like a worker's scrape: counter, gauge, histogram.
std::vector<metrics::Sample> worker_snapshot(u64 jobs, double depth,
                                             double latency) {
  Registry registry;
  registry.counter("reese_test_jobs_total", {{"kind", "campaign"}},
                   "Jobs run")->inc(jobs);
  registry.gauge("reese_test_depth", {}, "Queue depth")->set(depth);
  registry.histogram("reese_test_latency", {1.0, 8.0}, {}, "Latency")
      ->observe(latency);
  return registry.snapshot();
}

TEST(Metrics, MergeFromSumsCountersAndSetsGauges) {
  Registry target;
  std::string error;
  const std::vector<metrics::Sample> scrape = worker_snapshot(5, 3.0, 0.5);
  ASSERT_TRUE(target.merge_from(scrape, {}, &error)) << error;
  ASSERT_TRUE(target.merge_from(scrape, {}, &error)) << error;
  const std::vector<metrics::Sample> merged = target.snapshot();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged[1].value, 10.0) << "counters must sum on re-merge";
  EXPECT_DOUBLE_EQ(merged[0].value, 3.0) << "gauges must set, not sum";
  EXPECT_EQ(merged[2].count, 2u) << "histogram counts add per bucket";
  EXPECT_DOUBLE_EQ(merged[2].sum, 1.0);
  ASSERT_EQ(merged[2].buckets.size(), 3u);
  EXPECT_EQ(merged[2].buckets[0], 2u);
}

TEST(Metrics, MergeFromKeepsWorkersApartViaExtraLabels) {
  Registry target;
  std::string error;
  ASSERT_TRUE(target.merge_from(worker_snapshot(5, 3.0, 0.5),
                                {{"worker", "a:1"}}, &error))
      << error;
  ASSERT_TRUE(target.merge_from(worker_snapshot(2, 7.0, 9.0),
                                {{"worker", "b:2"}}, &error))
      << error;
  const std::string text = target.prometheus();
  EXPECT_NE(text.find("reese_test_jobs_total{kind=\"campaign\","
                      "worker=\"a:1\"} 5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("reese_test_jobs_total{kind=\"campaign\","
                      "worker=\"b:2\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("reese_test_depth{worker=\"a:1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_depth{worker=\"b:2\"} 7"),
            std::string::npos);
}

TEST(Metrics, MergeFromExtraLabelWinsACollisionInPlace) {
  // A sample that already carries the federator's label name: the extra
  // value replaces it without reordering the label set (order is series
  // identity).
  Registry source;
  source.counter("reese_test_events_total",
                 {{"worker", "self"}, {"kind", "squash"}})
      ->inc(4);
  Registry target;
  std::string error;
  ASSERT_TRUE(target.merge_from(source.snapshot(), {{"worker", "a:1"}},
                                &error))
      << error;
  const std::vector<metrics::Sample> merged = target.snapshot();
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(merged[0].labels.size(), 2u);
  EXPECT_EQ(merged[0].labels[0].first, "worker");
  EXPECT_EQ(merged[0].labels[0].second, "a:1") << "extra value must win";
  EXPECT_EQ(merged[0].labels[1].first, "kind");
}

TEST(Metrics, MergeFromRejectsUnmergeableSamples) {
  Registry target;
  target.gauge("reese_test_shape");
  std::string error;

  // Type conflict: the name is already a gauge here.
  Registry counters;
  counters.counter("reese_test_shape_total");
  ASSERT_TRUE(target.merge_from(counters.snapshot(), {}, &error));
  metrics::Sample clash;
  clash.name = "reese_test_shape";
  clash.type = metrics::MetricType::kCounter;
  EXPECT_FALSE(target.merge_from({clash}, {}, &error));
  EXPECT_FALSE(error.empty());

  // Histogram bounds mismatch: refused, not silently misbinned.
  Registry narrow;
  narrow.histogram("reese_test_hist", {1.0, 2.0})->observe(1.5);
  Registry wide;
  wide.histogram("reese_test_hist", {1.0, 4.0})->observe(1.5);
  Registry fed;
  ASSERT_TRUE(fed.merge_from(narrow.snapshot(), {}, &error)) << error;
  EXPECT_FALSE(fed.merge_from(wide.snapshot(), {}, &error));
  EXPECT_NE(error.find("bounds"), std::string::npos) << error;
}

TEST(Metrics, FederatedExportIsOrderInvariantAndDeterministic) {
  // The byte-compare the fleet test leans on: merging workers in any
  // order renders the same exposition text, because snapshot() sorts by
  // (name, labels).
  const std::vector<metrics::Sample> w1 = worker_snapshot(5, 3.0, 0.5);
  const std::vector<metrics::Sample> w2 = worker_snapshot(2, 7.0, 9.0);
  std::string error;
  Registry forward;
  ASSERT_TRUE(forward.merge_from(w1, {{"worker", "a:1"}}, &error));
  ASSERT_TRUE(forward.merge_from(w2, {{"worker", "b:2"}}, &error));
  Registry reverse;
  ASSERT_TRUE(reverse.merge_from(w2, {{"worker", "b:2"}}, &error));
  ASSERT_TRUE(reverse.merge_from(w1, {{"worker", "a:1"}}, &error));
  EXPECT_EQ(forward.prometheus(), reverse.prometheus());
}

TEST(Metrics, ParsePrometheusRoundTripsByteIdentically) {
  Registry original;
  original.counter("reese_test_jobs_total", {{"kind", "experiment"}},
                   "Jobs run")->inc(5);
  original.counter("reese_test_jobs_total", {{"kind", "campaign"}})->inc(2);
  original.gauge("reese_test_depth", {}, "Queue depth")->set(3.5);
  metrics::HistogramMetric* histogram = original.histogram(
      "reese_test_latency", {1.0, 8.0}, {{"path", "p"}}, "Latency");
  histogram->observe(0.5);
  histogram->observe(2.0);
  histogram->observe(99.0);
  // Label values that exercise the escaping path both directions.
  original.counter("reese_test_odd_total",
                   {{"msg", "a \"quoted\"\nline\\done"}})->inc(1);

  const std::string text = original.prometheus();
  std::vector<metrics::Sample> parsed;
  std::string error;
  ASSERT_TRUE(metrics::parse_prometheus(text, &parsed, &error)) << error;
  Registry rebuilt;
  ASSERT_TRUE(rebuilt.merge_from(parsed, {}, &error)) << error;
  EXPECT_EQ(rebuilt.prometheus(), text)
      << "parse -> merge must invert prometheus() byte for byte";
}

TEST(Metrics, ParsePrometheusRejectsWhatItCannotRepresent) {
  std::vector<metrics::Sample> parsed;
  std::string error;
  // A histogram whose cumulative buckets decrease is corrupt.
  EXPECT_FALSE(metrics::parse_prometheus(
      "# TYPE reese_test_h histogram\n"
      "reese_test_h_bucket{le=\"1\"} 5\n"
      "reese_test_h_bucket{le=\"+Inf\"} 3\n"
      "reese_test_h_sum 1\n"
      "reese_test_h_count 3\n",
      &parsed, &error));
  EXPECT_FALSE(error.empty());
  // A histogram without its +Inf bucket cannot be reassembled.
  EXPECT_FALSE(metrics::parse_prometheus(
      "# TYPE reese_test_h histogram\n"
      "reese_test_h_bucket{le=\"1\"} 5\n"
      "reese_test_h_sum 1\n"
      "reese_test_h_count 5\n",
      &parsed, &error));
  // A line that is not "name{labels} value".
  EXPECT_FALSE(metrics::parse_prometheus("what even is this\n", &parsed,
                                         &error));
  EXPECT_FALSE(metrics::parse_prometheus("reese_test_x not_a_number\n",
                                         &parsed, &error));
}

TEST(Metrics, SnapshotIsSortedAndComplete) {
  Registry registry;
  registry.gauge("reese_test_z");
  registry.counter("reese_test_a_total")->inc();
  registry.counter("reese_test_m_total", {{"w", "li"}});
  registry.counter("reese_test_m_total", {{"w", "gcc"}});
  const std::vector<metrics::Sample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "reese_test_a_total");
  EXPECT_EQ(samples[1].name, "reese_test_m_total");
  EXPECT_EQ(samples[1].labels[0].second, "gcc");  // labels sort within name
  EXPECT_EQ(samples[2].labels[0].second, "li");
  EXPECT_EQ(samples[3].name, "reese_test_z");
  EXPECT_DOUBLE_EQ(samples[0].value, 1.0);
}

}  // namespace
}  // namespace reese
