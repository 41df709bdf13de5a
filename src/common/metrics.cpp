#include "common/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/json.h"
#include "common/strutil.h"

namespace reese::metrics {

namespace {

bool valid_identifier(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::islower(static_cast<unsigned char>(name[0])) || name[0] == '_')) {
    return false;
  }
  for (char c : name) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

bool ends_with(const std::string& s, const char* suffix) {
  const usize n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool valid_labels(const Labels& labels) {
  for (const auto& [name, value] : labels) {
    (void)value;
    if (!valid_label_name(name)) return false;
  }
  return true;
}

/// Type suffix rules from the header: counters end in _total, others don't.
bool name_fits_type(const std::string& name, MetricType type) {
  return type == MetricType::kCounter ? ends_with(name, "_total")
                                      : !ends_with(name, "_total");
}

/// Render a double the way Prometheus expects: integers without a mantissa,
/// everything else with enough digits to round-trip.
std::string render_value(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (std::isnan(value)) return "NaN";
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return format("%.0f", value);
  }
  return format("%.9g", value);
}

/// {a="b",c="d"} — empty string for no labels.
std::string render_label_block(const Labels& labels,
                               const char* extra_name = nullptr,
                               const std::string& extra_value = "") {
  if (labels.empty() && extra_name == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += name + "=\"" + json_escape(value) + "\"";
  }
  if (extra_name != nullptr) {
    if (!first) out += ",";
    out += std::string(extra_name) + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

bool valid_metric_name(const std::string& name) {
  return valid_identifier(name) && starts_with(name, "reese_");
}

bool valid_label_name(const std::string& name) { return valid_identifier(name); }

HistogramMetric::HistogramMetric(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void HistogramMetric::observe(double sample) {
  usize index = bounds_.size();  // +Inf by default
  for (usize i = 0; i < bounds_.size(); ++i) {
    if (sample <= bounds_[i]) {
      index = i;
      break;
    }
  }
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + sample,
                                     std::memory_order_relaxed)) {
  }
}

void HistogramMetric::add_bucket(usize index, u64 count, double sum_delta) {
  if (index >= buckets_.size()) return;
  buckets_[index].fetch_add(count, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + sum_delta,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<u64> HistogramMetric::bucket_counts() const {
  std::vector<u64> counts(buckets_.size());
  for (usize i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

Registry::Entry* Registry::find_or_create(const std::string& name,
                                          MetricType type,
                                          const Labels& labels,
                                          const std::string& help) {
  if (!valid_metric_name(name) || !valid_labels(labels) ||
      !name_fits_type(name, type)) {
    return nullptr;
  }
  for (const auto& entry : entries_) {
    if (entry->name != name) continue;
    // A name owns its type: a second registration with another type is a
    // programming error surfaced as nullptr, not a silent second family.
    if (entry->type != type) return nullptr;
    if (entry->labels == labels) return entry.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->type = type;
  entry->labels = labels;
  entry->help = help;
  if (help.empty()) {
    // Share the help text across label sets of the same family.
    for (const auto& existing : entries_) {
      if (existing->name == name) {
        entry->help = existing->help;
        break;
      }
    }
  }
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* Registry::counter(const std::string& name, const Labels& labels,
                           const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_or_create(name, MetricType::kCounter, labels, help);
  if (entry == nullptr) return nullptr;
  if (entry->counter == nullptr) entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* Registry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_or_create(name, MetricType::kGauge, labels, help);
  if (entry == nullptr) return nullptr;
  if (entry->gauge == nullptr) entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

HistogramMetric* Registry::histogram(const std::string& name,
                                     std::vector<double> bounds,
                                     const Labels& labels,
                                     const std::string& help) {
  if (bounds.empty()) return nullptr;
  for (usize i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_or_create(name, MetricType::kHistogram, labels, help);
  if (entry == nullptr) return nullptr;
  if (entry->histogram == nullptr) {
    // First label set fixes the family's bounds; later sets must agree so
    // the exposition stays scrapeable as one family.
    for (const auto& existing : entries_) {
      if (existing.get() != entry && existing->name == name &&
          existing->histogram != nullptr &&
          existing->histogram->bounds() != bounds) {
        return nullptr;
      }
    }
    entry->histogram = std::make_unique<HistogramMetric>(std::move(bounds));
  } else if (entry->histogram->bounds() != bounds) {
    return nullptr;
  }
  return entry->histogram.get();
}

usize Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<Sample> Registry::snapshot() const {
  std::vector<Sample> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samples.reserve(entries_.size());
    for (const auto& entry : entries_) {
      Sample sample;
      sample.name = entry->name;
      sample.type = entry->type;
      sample.help = entry->help;
      sample.labels = entry->labels;
      switch (entry->type) {
        case MetricType::kCounter:
          sample.value = static_cast<double>(entry->counter->value());
          break;
        case MetricType::kGauge:
          sample.value = entry->gauge->value();
          break;
        case MetricType::kHistogram:
          sample.bounds = entry->histogram->bounds();
          sample.buckets = entry->histogram->bucket_counts();
          sample.count = entry->histogram->count();
          sample.sum = entry->histogram->sum();
          break;
      }
      samples.push_back(std::move(sample));
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return samples;
}

bool Registry::merge_from(const std::vector<Sample>& samples,
                          const Labels& extra, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  for (const Sample& sample : samples) {
    // Compose the target label set: extra labels append, but an extra name
    // the sample already carries replaces in place (the federator owns the
    // worker identity; keeping the position keeps series identity stable).
    Labels labels = sample.labels;
    for (const auto& [extra_name, extra_value] : extra) {
      bool replaced = false;
      for (auto& [name, value] : labels) {
        if (name == extra_name) {
          value = extra_value;
          replaced = true;
          break;
        }
      }
      if (!replaced) labels.emplace_back(extra_name, extra_value);
    }
    switch (sample.type) {
      case MetricType::kCounter: {
        Counter* target = counter(sample.name, labels, sample.help);
        if (target == nullptr) {
          return fail("cannot merge counter " + sample.name +
                      " (invalid name/labels or type conflict)");
        }
        const double value = sample.value < 0.0 ? 0.0 : sample.value;
        target->inc(static_cast<u64>(std::llround(value)));
        break;
      }
      case MetricType::kGauge: {
        Gauge* target = gauge(sample.name, labels, sample.help);
        if (target == nullptr) {
          return fail("cannot merge gauge " + sample.name +
                      " (invalid name/labels or type conflict)");
        }
        target->set(sample.value);
        break;
      }
      case MetricType::kHistogram: {
        HistogramMetric* target =
            histogram(sample.name, sample.bounds, labels, sample.help);
        if (target == nullptr) {
          return fail("cannot merge histogram " + sample.name +
                      " (type conflict or bucket-bounds mismatch)");
        }
        const usize bucket_count = sample.bounds.size() + 1;
        for (usize i = 0; i < sample.buckets.size() && i < bucket_count; ++i) {
          target->add_bucket(i, sample.buckets[i], 0.0);
        }
        target->add_bucket(0, 0, sample.sum);
        break;
      }
    }
  }
  return true;
}

std::string Registry::prometheus() const {
  const std::vector<Sample> samples = snapshot();
  std::string out;
  std::string current_family;
  for (const Sample& sample : samples) {
    if (sample.name != current_family) {
      current_family = sample.name;
      if (!sample.help.empty()) {
        out += "# HELP " + sample.name + " " + sample.help + "\n";
      }
      out += "# TYPE " + sample.name + " " +
             metric_type_name(sample.type) + "\n";
    }
    if (sample.type == MetricType::kHistogram) {
      u64 cumulative = 0;
      for (usize i = 0; i < sample.buckets.size(); ++i) {
        cumulative += sample.buckets[i];
        const std::string le = i < sample.bounds.size()
                                   ? render_value(sample.bounds[i])
                                   : "+Inf";
        out += sample.name + "_bucket" +
               render_label_block(sample.labels, "le", le) +
               format(" %llu\n", static_cast<unsigned long long>(cumulative));
      }
      out += sample.name + "_sum" + render_label_block(sample.labels) + " " +
             render_value(sample.sum) + "\n";
      out += sample.name + "_count" + render_label_block(sample.labels) +
             format(" %llu\n", static_cast<unsigned long long>(sample.count));
    } else {
      out += sample.name + render_label_block(sample.labels) + " " +
             render_value(sample.value) + "\n";
    }
  }
  return out;
}

namespace {

/// Inverse of json_escape (common/json.h) for label values.
bool unescape_label_value(std::string_view in, std::string* out) {
  out->clear();
  for (usize i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c != '\\') {
      *out += c;
      continue;
    }
    if (i + 1 >= in.size()) return false;
    const char escape = in[++i];
    switch (escape) {
      case '"': *out += '"'; break;
      case '\\': *out += '\\'; break;
      case 'n': *out += '\n'; break;
      case 't': *out += '\t'; break;
      case 'r': *out += '\r'; break;
      case 'u': {
        if (i + 4 >= in.size()) return false;
        unsigned value = 0;
        for (usize d = 1; d <= 4; ++d) {
          const char hex = in[i + d];
          value <<= 4;
          if (hex >= '0' && hex <= '9') {
            value |= static_cast<unsigned>(hex - '0');
          } else if (hex >= 'a' && hex <= 'f') {
            value |= static_cast<unsigned>(hex - 'a' + 10);
          } else if (hex >= 'A' && hex <= 'F') {
            value |= static_cast<unsigned>(hex - 'A' + 10);
          } else {
            return false;
          }
        }
        if (value > 0xFF) return false;  // our escaper emits \u00XX only
        *out += static_cast<char>(value);
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return true;
}

/// Parse `{a="b",c="d"}`; advances *pos past the closing brace.
bool parse_label_block(std::string_view line, usize* pos, Labels* labels,
                       std::string* message) {
  usize i = *pos + 1;  // past '{'
  while (i < line.size() && line[i] != '}') {
    const usize eq = line.find('=', i);
    if (eq == std::string_view::npos || eq + 1 >= line.size() ||
        line[eq + 1] != '"') {
      *message = "malformed label block";
      return false;
    }
    const std::string name(line.substr(i, eq - i));
    usize value_end = eq + 2;
    while (value_end < line.size() &&
           (line[value_end] != '"' || line[value_end - 1] == '\\')) {
      ++value_end;
    }
    if (value_end >= line.size()) {
      *message = "unterminated label value";
      return false;
    }
    std::string value;
    if (!unescape_label_value(line.substr(eq + 2, value_end - eq - 2),
                              &value)) {
      *message = "bad escape in label value";
      return false;
    }
    labels->emplace_back(name, std::move(value));
    i = value_end + 1;
    if (i < line.size() && line[i] == ',') ++i;
  }
  if (i >= line.size()) {
    *message = "unterminated label block";
    return false;
  }
  *pos = i + 1;
  return true;
}

}  // namespace

bool parse_prometheus(std::string_view text, std::vector<Sample>* out,
                      std::string* error) {
  const auto fail = [error](usize line_number, const std::string& message) {
    if (error != nullptr) {
      *error = format("prometheus line %zu: %s", line_number, message.c_str());
    }
    return false;
  };

  std::vector<std::pair<std::string, MetricType>> types;
  std::vector<std::pair<std::string, std::string>> helps;
  const auto type_of = [&types](const std::string& name) -> const MetricType* {
    for (const auto& [family, type] : types) {
      if (family == name) return &type;
    }
    return nullptr;
  };
  const auto help_of = [&helps](const std::string& name) {
    for (const auto& [family, help] : helps) {
      if (family == name) return help;
    }
    return std::string();
  };

  // Histogram families reassemble from their _bucket/_sum/_count series;
  // cumulative bucket counts convert back to Sample's per-bucket counts at
  // the end.
  struct HistogramBuild {
    Sample sample;
    std::vector<std::pair<double, u64>> cumulative;  ///< (le, count) in order
  };
  std::vector<HistogramBuild> histogram_builds;

  usize line_number = 0;
  for (std::string_view raw_line : split(text, '\n')) {
    ++line_number;
    const std::string_view line = trim(raw_line);
    if (line.empty()) continue;
    if (starts_with(line, "# HELP ")) {
      const std::string_view rest = line.substr(7);
      const usize space = rest.find(' ');
      if (space == std::string_view::npos) {
        return fail(line_number, "malformed # HELP");
      }
      helps.emplace_back(std::string(rest.substr(0, space)),
                         std::string(rest.substr(space + 1)));
      continue;
    }
    if (starts_with(line, "# TYPE ")) {
      const std::string_view rest = line.substr(7);
      const usize space = rest.find(' ');
      if (space == std::string_view::npos) {
        return fail(line_number, "malformed # TYPE");
      }
      const std::string_view type_token = rest.substr(space + 1);
      MetricType type;
      if (type_token == "counter") {
        type = MetricType::kCounter;
      } else if (type_token == "gauge") {
        type = MetricType::kGauge;
      } else if (type_token == "histogram") {
        type = MetricType::kHistogram;
      } else {
        return fail(line_number,
                    "unknown metric type \"" + std::string(type_token) + "\"");
      }
      types.emplace_back(std::string(rest.substr(0, space)), type);
      continue;
    }
    if (line[0] == '#') continue;  // other comments are legal, ignored

    // Sample line: name[{labels}] value
    usize pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    const std::string series_name(line.substr(0, pos));
    Labels labels;
    if (pos < line.size() && line[pos] == '{') {
      std::string message;
      if (!parse_label_block(line, &pos, &labels, &message)) {
        return fail(line_number, message);
      }
    }
    const std::string_view value_token = trim(line.substr(pos));
    if (value_token.empty()) return fail(line_number, "missing sample value");
    const std::string value_string(value_token);
    char* end = nullptr;
    const double value = std::strtod(value_string.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return fail(line_number, "bad sample value \"" + value_string + "\"");
    }

    // Resolve the family: a direct # TYPE match, or a histogram series
    // suffix whose stripped family is a declared histogram.
    const MetricType* type = type_of(series_name);
    if (type != nullptr && *type != MetricType::kHistogram) {
      Sample sample;
      sample.name = series_name;
      sample.type = *type;
      sample.help = help_of(series_name);
      sample.labels = std::move(labels);
      sample.value = value;
      out->push_back(std::move(sample));
      continue;
    }
    std::string family;
    std::string_view role;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      if (ends_with(series_name, suffix)) {
        const std::string candidate = series_name.substr(
            0, series_name.size() - std::char_traits<char>::length(suffix));
        const MetricType* candidate_type = type_of(candidate);
        if (candidate_type != nullptr &&
            *candidate_type == MetricType::kHistogram) {
          family = candidate;
          role = std::string_view(suffix).substr(1);
          break;
        }
      }
    }
    if (family.empty()) {
      return fail(line_number,
                  "series " + series_name + " has no # TYPE declaration");
    }

    double le = 0.0;
    if (role == "bucket") {
      bool found = false;
      for (usize l = 0; l < labels.size(); ++l) {
        if (labels[l].first == "le") {
          const std::string& le_value = labels[l].second;
          le = le_value == "+Inf"
                   ? std::numeric_limits<double>::infinity()
                   : std::strtod(le_value.c_str(), nullptr);
          labels.erase(labels.begin() + static_cast<std::ptrdiff_t>(l));
          found = true;
          break;
        }
      }
      if (!found) return fail(line_number, "histogram bucket without le");
    }
    HistogramBuild* build = nullptr;
    for (HistogramBuild& candidate : histogram_builds) {
      if (candidate.sample.name == family &&
          candidate.sample.labels == labels) {
        build = &candidate;
        break;
      }
    }
    if (build == nullptr) {
      histogram_builds.emplace_back();
      build = &histogram_builds.back();
      build->sample.name = family;
      build->sample.type = MetricType::kHistogram;
      build->sample.help = help_of(family);
      build->sample.labels = labels;
    }
    if (role == "bucket") {
      build->cumulative.emplace_back(
          le, static_cast<u64>(std::llround(value < 0.0 ? 0.0 : value)));
    } else if (role == "sum") {
      build->sample.sum = value;
    } else {
      build->sample.count =
          static_cast<u64>(std::llround(value < 0.0 ? 0.0 : value));
    }
  }

  for (HistogramBuild& build : histogram_builds) {
    if (build.cumulative.empty() ||
        !std::isinf(build.cumulative.back().first)) {
      if (error != nullptr) {
        *error = "histogram " + build.sample.name + " lacks a +Inf bucket";
      }
      return false;
    }
    u64 previous = 0;
    for (const auto& [bound, cumulative] : build.cumulative) {
      if (cumulative < previous) {
        if (error != nullptr) {
          *error = "histogram " + build.sample.name +
                   " has non-monotonic cumulative buckets";
        }
        return false;
      }
      if (!std::isinf(bound)) build.sample.bounds.push_back(bound);
      build.sample.buckets.push_back(cumulative - previous);
      previous = cumulative;
    }
    out->push_back(std::move(build.sample));
  }
  return true;
}

}  // namespace reese::metrics
