// Spans, committed references, output checks and the end-to-end metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "bench.h"
#include "common/diag.h"
#include "common/rng.h"
#include "common/strutil.h"

namespace perfbench {

using namespace reese;

namespace {

double cpu_seconds(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

}  // namespace

double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

/// next[i] is the successor of i on one random cycle through all `size`
/// slots, so a chase visits every slot in an order the prefetchers cannot
/// follow.
std::vector<u32> random_cycle(usize size) {
  std::vector<u32> order(size);
  for (usize i = 0; i < size; ++i) order[i] = static_cast<u32>(i);
  SplitMix64 rng(0x5EED);
  for (usize i = size - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next() % (i + 1)]);
  }
  std::vector<u32> next(size);
  for (usize i = 0; i < size; ++i) next[order[i]] = order[(i + 1) % size];
  return next;
}

volatile u32 probe_sink;

}  // namespace

double host_probe_s() {
  static const std::vector<u32> l1 = random_cycle(8 * 1024);   // 32 KB
  static const std::vector<u32> l2 = random_cycle(64 * 1024);  // 256 KB
  const double begin = thread_cpu_s();
  u32 at = 0;
  for (usize i = 0; i < 1'000'000; ++i) at = l1[at];
  for (usize i = 0; i < 400'000; ++i) at = l2[at];
  probe_sink = at;
  return thread_cpu_s() - begin;
}

// --- SpanLog -----------------------------------------------------------------

u64 SpanLog::reserve() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

u64 SpanLog::record(const std::string& layer, const std::string& name,
                    Clock::time_point begin, Clock::time_point end, u64 parent,
                    u64 id) {
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0) id = next_id_++;
  spans_.push_back({layer, name, micros(begin), micros(end), id, parent});
  return id;
}

usize SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu}}\n",
                 i == 0 ? "" : ",", json_escape(span.name).c_str(),
                 json_escape(span.layer).c_str(), span.begin_us,
                 span.end_us - span.begin_us,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

// --- References ----------------------------------------------------------

bool References::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const usize tab = line.find('\t');
    if (tab == std::string::npos) {
      *error = "malformed reference line: " + line;
      return false;
    }
    entries_[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return true;
}

const std::string* References::find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

bool References::has_prefix(const std::string& prefix) const {
  const auto it = entries_.lower_bound(prefix);
  return it != entries_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
}

bool References::perturb(const std::string& prefix) {
  if (!has_prefix(prefix)) return false;
  entries_.lower_bound(prefix)->second += "-perturbed";
  return true;
}

// --- Checker -----------------------------------------------------------------

bool Checker::check(const std::string& item, const std::string& value) {
  bool ok = true;
  if (references_ != nullptr) {
    if (const std::string* expected = references_->find(prefix_ + " " + item)) {
      ++reference_checks_;
      if (*expected != value) {
        std::fprintf(stderr,
                     "perfbench: %s differs from the committed reference\n"
                     "  expected %s\n  got      %s\n",
                     item.c_str(), expected->c_str(), value.c_str());
        ok = false;
      }
    }
  }
  const auto [it, inserted] = first_.emplace(item, value);
  if (!inserted && it->second != value) {
    std::fprintf(stderr,
                 "perfbench: %s changed between repeats of the same input\n",
                 item.c_str());
    ok = false;
  }
  if (!ok) ++mismatches_;
  return ok;
}

void Checker::note_failure(const std::string& what) {
  ++mismatches_;
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least `fraction` of the
  // samples at or below it.
  usize rank = static_cast<usize>(
      std::ceil(fraction * static_cast<double>(values.size())));
  rank = std::clamp<usize>(rank, 1, values.size());
  return values[rank - 1];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const usize n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double trimmed_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const usize drop = sorted.size() / 10;
  double sum = 0.0;
  for (usize i = drop; i < sorted.size() - drop; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * drop);
}

double tail_fraction(usize samples) {
  double best = 0.0;
  for (const double fraction : {0.5, 0.9, 0.99, 0.999}) {
    if ((1.0 - fraction) * static_cast<double>(samples) >= 10.0) {
      best = fraction;
    }
  }
  return best;
}

std::vector<Metric> end_to_end_metrics(const Samples& s, double setup_s,
                                       double peak_rss_mb) {
  // Every repeat of an operation does identical work, so rates divide one
  // operation's work by its trimmed mean CPU time, scaled to the reference
  // host speed.
  const double passes = static_cast<double>(s.grid_pass_s.size());
  const auto kips = [&](usize first, usize last) {
    double committed = 0.0;
    double cpu_s = 0.0;
    for (usize m = first; m <= last; ++m) {
      committed += static_cast<double>(s.model_committed[m]) / passes;
      for (const auto& per_model : s.cell_ref_s) {
        cpu_s += trimmed_mean(per_model[m]);
      }
    }
    return cpu_s > 0.0 ? committed / cpu_s / 1e3 : 0.0;
  };
  return {
      {"setup_s", setup_s, "s"},
      {"grid_cpu_s", trimmed_mean(s.grid_pass_ref_s), "s"},
      {"baseline_kips", kips(0, 0), "kIPS"},
      {"reese_kips", kips(1, 4), "kIPS"},
      {"franklin_kips", kips(kFranklin, kFranklin), "kIPS"},
      {"campaign_inj_per_s",
       per_op_rate(s.campaign_injections, s.campaign_op_ref_s), "1/s"},
      {"fleet_inj_per_s", per_op_rate(s.fleet_injections, s.fleet_op_ref_s),
       "1/s"},
      {"fleet_wall_ratio", median(s.fleet_wall_ratio), "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

double per_op_rate(u64 total, const std::vector<double>& op_s) {
  if (op_s.empty()) return 0.0;
  return static_cast<double>(total) / static_cast<double>(op_s.size()) /
         trimmed_mean(op_s);
}

std::vector<Metric> wall_metrics(const Samples& s) {
  return {
      {"grid_wall_s", trimmed_mean(s.grid_pass_s), "s"},
      {"campaign_wall_inj_per_s",
       per_op_rate(s.campaign_injections, s.campaign_op_s), "1/s"},
      {"fleet_wall_inj_per_s", per_op_rate(s.fleet_injections, s.fleet_op_s),
       "1/s"},
      {"job_p50_ms", percentile(s.job_ms, 0.50), "ms"},
      {"job_p99_ms", percentile(s.job_ms, 0.99), "ms"},
      {"jobs_per_s",
       s.service_s > 0.0 ? static_cast<double>(s.jobs_completed) / s.service_s
                         : 0.0,
       "1/s"},
      {"fetch_p50_ms", percentile(s.fetch_ms, 0.50), "ms"},
      {"fetch_p99_ms", percentile(s.fetch_ms, 0.99), "ms"},
  };
}

}  // namespace perfbench
