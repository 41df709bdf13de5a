// Metrics registry: the cross-layer observability spine (DESIGN.md §12).
//
// Every layer that wants to be observable — the core's CoreStats, the
// experiment/campaign grid runners, the reesed service — registers named
// counters, gauges and histograms here instead of inventing one-off report
// formats. A registry snapshot serializes as Prometheus text exposition
// (GET /v1/metrics on reesed), so a stock Prometheus/Grafana stack can
// scrape a long-lived daemon.
//
// Naming convention (enforced by register-time validation):
//   reese_<subsystem>_<noun>[_<unit>][_total]
//   e.g. reese_core_committed_instructions_total,
//        reese_service_queue_depth, reese_grid_cell_seconds.
// Counters end in "_total"; gauges and histograms never do. Label names
// follow the same [a-z_][a-z0-9_]* shape.
//
// Concurrency contract: metric handles returned by the registry are stable
// for the registry's lifetime and every mutation (Counter::inc, Gauge::set,
// HistogramMetric::observe) is lock-free on atomics, so simulation worker
// threads can bump counters without serializing on the registry mutex. The
// mutex guards only registration and snapshotting.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

namespace reese::metrics {

/// Label set: ordered (name, value) pairs. Order is part of the metric
/// identity — callers pass labels in a fixed order, which keeps lookup a
/// plain vector compare and serialization deterministic.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter (u64, lock-free).
class Counter {
 public:
  void inc(u64 delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  /// Counters are monotonic by contract; set() exists for exporters that
  /// mirror an externally-accumulated total (e.g. CoreStats fields) and
  /// must never be used to move a counter backwards.
  void set(u64 value) { value_.store(value, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Instantaneous value (double, lock-free set/add).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Cumulative histogram with caller-defined upper bounds (Prometheus "le"
/// semantics: bucket i counts samples <= bounds[i]; +Inf is implicit).
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> bounds);

  void observe(double sample);

  /// Bulk import for exporters mirroring an externally-accumulated
  /// distribution: add `count` samples to bucket `index` (index ==
  /// bounds().size() is the +Inf bucket) and `sum_delta` to the sum —
  /// O(1) instead of one observe() per sample.
  void add_bucket(usize index, u64 count, double sum_delta);

  u64 count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative per-bucket counts; index bounds_.size() is +Inf.
  std::vector<u64> bucket_counts() const;

 private:
  std::vector<double> bounds_;  ///< strictly increasing upper bounds
  std::vector<std::atomic<u64>> buckets_;  ///< bounds_.size() + 1 (+Inf)
  std::atomic<u64> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricType : u8 { kCounter, kGauge, kHistogram };

const char* metric_type_name(MetricType type);

/// One metric's state at snapshot time.
struct Sample {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string help;
  Labels labels;
  double value = 0.0;              ///< counter/gauge value
  std::vector<double> bounds;      ///< histogram only
  std::vector<u64> buckets;        ///< histogram only (+Inf last)
  u64 count = 0;                   ///< histogram only
  double sum = 0.0;                ///< histogram only
};

/// Validate a metric or label name against the naming convention above.
bool valid_metric_name(const std::string& name);
bool valid_label_name(const std::string& name);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register-or-fetch. The same (name, labels) always returns the same
  /// handle; a name that is already registered with a different type, an
  /// invalid name/label, or a counter not ending in "_total" (or a
  /// gauge/histogram that does) returns nullptr. `help` is kept from the
  /// first registration of a name.
  Counter* counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge* gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  /// `bounds` must be strictly increasing and non-empty; they are fixed by
  /// the first registration of `name` (subsequent label sets share them).
  HistogramMetric* histogram(const std::string& name,
                             std::vector<double> bounds,
                             const Labels& labels = {},
                             const std::string& help = "");

  /// Consistent point-in-time view, sorted by (name, labels).
  std::vector<Sample> snapshot() const;

  /// Federation merge (DESIGN.md §17): fold `samples` (typically another
  /// registry's snapshot, or parse_prometheus of a scraped /v1/metrics
  /// body) into this registry with `extra` labels appended to every
  /// series. Semantics per type:
  ///   * counters add their value to the target series (merging N workers
  ///     with distinct `extra` labels keeps them separate; merging the
  ///     same source twice sums — counter semantics);
  ///   * gauges set the target (per-worker labels keep workers apart, a
  ///     re-merge takes the latest value);
  ///   * histograms require identical bounds and add per-bucket counts
  ///     and the sum.
  /// Label collision rule: when a sample already carries one of the
  /// `extra` label names, the extra value wins (the federator owns the
  /// worker identity) — the sample's own value is replaced in place, so
  /// label order (part of series identity) is unchanged. Stops at the
  /// first sample that cannot be merged (invalid name, type conflict,
  /// histogram bounds mismatch) and returns false with a diagnostic.
  bool merge_from(const std::vector<Sample>& samples, const Labels& extra,
                  std::string* error = nullptr);

  /// Prometheus text exposition format (version 0.0.4): one # HELP/# TYPE
  /// header per family, then one line per label set (histograms expand to
  /// _bucket/_sum/_count series).
  std::string prometheus() const;

  usize size() const;

 private:
  struct Entry {
    std::string name;
    MetricType type;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Entry* find_or_create(const std::string& name, MetricType type,
                        const Labels& labels, const std::string& help);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Parse the subset of the Prometheus text exposition format that
/// Registry::prometheus() emits back into samples — the inverse the fleet
/// coordinator needs to federate scraped worker metrics (DESIGN.md §17).
/// Histogram families (# TYPE ... histogram) are reassembled from their
/// _bucket/_sum/_count series, with cumulative buckets converted back to
/// the per-bucket counts Sample carries. A registry rebuilt via
/// merge_from(parsed, {}) re-exports byte-identical text. False with a
/// diagnostic on any line that does not fit the emitted grammar.
bool parse_prometheus(std::string_view text, std::vector<Sample>* out,
                      std::string* error);

}  // namespace reese::metrics
