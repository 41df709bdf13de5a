#include "core/stats.h"

#include <array>

#include "common/snapshot.h"
#include "common/strutil.h"

namespace reese::core {

const char* cycle_class_name(CycleClass cls) {
  switch (cls) {
    case CycleClass::kBusy: return "busy";
    case CycleClass::kRqueueFull: return "rqueue-full";
    case CycleClass::kRuuFull: return "ruu-full";
    case CycleClass::kLsqFull: return "lsq-full";
    case CycleClass::kIfqFull: return "ifq-full";
    case CycleClass::kIcache: return "icache";
    case CycleClass::kIdle: return "idle";
  }
  return "?";
}

u64 CoreStats::cycle_class_total() const {
  u64 total = 0;
  for (u64 count : cycle_classes) total += count;
  return total;
}

std::string CoreStats::cycle_class_summary() const {
  std::string out;
  for (usize i = 0; i < kCycleClassCount; ++i) {
    if (!out.empty()) out += ", ";
    out += format("%s %.1f%%", cycle_class_name(static_cast<CycleClass>(i)),
                  100.0 * safe_ratio(cycle_classes[i], cycles));
  }
  return out;
}

namespace {

/// The stall-attribution label values drop the '-' (Prometheus label
/// values may contain it, but underscores keep grep/query ergonomics
/// consistent with the metric names).
std::string cycle_class_label(CycleClass cls) {
  std::string label = cycle_class_name(cls);
  for (char& c : label) {
    if (c == '-') c = '_';
  }
  return label;
}

void set_counter(metrics::Registry* registry, const char* name, u64 value,
                 const metrics::Labels& labels, const char* help) {
  if (metrics::Counter* counter = registry->counter(name, labels, help)) {
    counter->set(value);
  }
}

}  // namespace

void export_core_stats(metrics::Registry* registry, const CoreStats& stats,
                       const metrics::Labels& labels) {
  const struct {
    const char* name;
    u64 value;
    const char* help;
  } counters[] = {
      {"reese_core_cycles_total", stats.cycles, "Simulated cycles"},
      {"reese_core_fetched_instructions_total", stats.fetched,
       "Instructions fetched"},
      {"reese_core_dispatched_instructions_total", stats.dispatched,
       "Instructions dispatched to the RUU"},
      {"reese_core_wrongpath_instructions_total", stats.wrongpath_dispatched,
       "Wrong-path instructions dispatched"},
      {"reese_core_issued_p_total", stats.issued_p, "P-stream issues"},
      {"reese_core_issued_r_total", stats.issued_r, "R-stream issues"},
      {"reese_core_committed_instructions_total", stats.committed,
       "P-stream instructions architecturally committed"},
      {"reese_core_committed_r_total", stats.committed_r,
       "R-stream executions compared"},
      {"reese_core_rskipped_instructions_total", stats.rskipped,
       "Instructions not re-executed (partial mode)"},
      {"reese_core_branches_resolved_total", stats.branches_resolved,
       "Resolved branches"},
      {"reese_core_branch_mispredicts_total", stats.branch_mispredicts,
       "Branch mispredictions"},
      {"reese_core_rqueue_enqueued_total", stats.rqueue_enqueued,
       "Instructions released into the R-stream queue"},
      {"reese_core_comparisons_total", stats.comparisons,
       "Comparator checks"},
      {"reese_core_errors_detected_total", stats.errors_detected,
       "Comparator mismatches detected"},
      {"reese_core_faults_injected_total", stats.faults_injected,
       "Faults injected"},
      {"reese_core_faults_undetected_total", stats.faults_undetected,
       "Faulty instructions committed unchecked"},
  };
  for (const auto& counter : counters) {
    set_counter(registry, counter.name, counter.value, labels, counter.help);
  }

  for (usize i = 0; i < kCycleClassCount; ++i) {
    const CycleClass cls = static_cast<CycleClass>(i);
    metrics::Labels class_labels = labels;
    class_labels.emplace_back("class", cycle_class_label(cls));
    set_counter(registry, "reese_core_cycle_class_total", stats.cycle_classes[i],
                class_labels,
                "Per-cycle stall attribution (partitions reese_core_cycles_total)");
  }

  const struct {
    const char* name;
    double value;
    const char* help;
  } gauges[] = {
      {"reese_core_ipc", stats.ipc(), "Committed instructions per cycle"},
      {"reese_core_ruu_occupancy_mean", stats.ruu_occupancy.mean(),
       "Mean RUU occupancy"},
      {"reese_core_rqueue_occupancy_mean", stats.rqueue_occupancy.mean(),
       "Mean R-stream queue occupancy"},
  };
  for (const auto& gauge : gauges) {
    if (metrics::Gauge* metric =
            registry->gauge(gauge.name, labels, gauge.help)) {
      metric->set(gauge.value);
    }
  }

  // The P->R separation distribution, re-bucketed onto the metric's fixed
  // upper bounds (the Histogram's finite buckets map 1:1).
  const Histogram& separation = stats.separation;
  std::vector<double> bounds;
  bounds.reserve(separation.buckets().size());
  for (usize i = 0; i < separation.buckets().size(); ++i) {
    bounds.push_back(
        static_cast<double>((i + 1) * separation.bucket_width() - 1));
  }
  if (metrics::HistogramMetric* histogram = registry->histogram(
          "reese_core_separation_cycles", bounds, labels,
          "R-issue minus P-issue, cycles")) {
    // Mirror the bucket counts once per (registry, labels): a histogram
    // cannot be set in place like a counter, so re-exports after further
    // simulation leave it at the first export's state.
    if (histogram->count() == 0) {
      for (usize i = 0; i < separation.buckets().size(); ++i) {
        histogram->add_bucket(i, separation.buckets()[i], 0.0);
      }
      // _sum is a histogram-wide scalar: charge the exact accumulated sum
      // in one shot alongside the overflow count.
      histogram->add_bucket(separation.buckets().size(), separation.overflow(),
                            static_cast<double>(separation.sum()));
    }
  }
}

namespace {

/// Every CoreStats counter in snapshot order: the one list save and load
/// share.
template <typename Stats>
auto counters(Stats& s) {
  return std::array{&s.cycles, &s.fetched, &s.dispatched,
                    &s.wrongpath_dispatched, &s.issued_p, &s.issued_r,
                    &s.committed, &s.committed_r, &s.rskipped,
                    &s.ifq_full_stall_cycles, &s.ruu_full_stalls,
                    &s.lsq_full_stalls, &s.icache_stall_cycles,
                    &s.branches_resolved, &s.branch_mispredicts,
                    &s.cond_branches_resolved, &s.cond_branch_mispredicts,
                    &s.rqueue_enqueued, &s.rqueue_full_stall_cycles,
                    &s.rpriority_cycles, &s.comparisons, &s.errors_detected,
                    &s.faults_injected, &s.faults_undetected};
}

}  // namespace

void CoreStats::save(SnapshotWriter* writer) const {
  for (const u64* counter : counters(*this)) writer->put_u64(*counter);
  for (u64 count : cycle_classes) writer->put_u64(count);
  for (const Histogram* h : {&separation, &detection_latency,
                             &issue_per_cycle}) {
    h->save(writer);
  }
  for (const RunningStat* stat : {&ruu_occupancy, &lsq_occupancy,
                                  &ifq_occupancy, &rqueue_occupancy}) {
    stat->save(writer);
  }
}

void CoreStats::load(SnapshotReader* reader) {
  for (u64* counter : counters(*this)) *counter = reader->get_u64();
  for (u64& count : cycle_classes) count = reader->get_u64();
  for (Histogram* h : {&separation, &detection_latency, &issue_per_cycle}) {
    h->load(reader);
  }
  for (RunningStat* stat : {&ruu_occupancy, &lsq_occupancy, &ifq_occupancy,
                            &rqueue_occupancy}) {
    stat->load(reader);
  }
}

}  // namespace reese::core
