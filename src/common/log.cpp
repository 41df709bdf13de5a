#include "common/log.h"

#include <chrono>

#include "common/json.h"

namespace reese::log {

namespace {

double wall_clock_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// A Field whose payload is `value` rendered by a Writer.
template <typename T>
Field rendered(std::string key, const T& value) {
  Field f{std::move(key), {}};
  json::Writer(&f.json).value(value);
  return f;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
  }
  return "?";
}

bool level_from_name(std::string_view name, Level* out) {
  if (name == "debug") {
    *out = Level::kDebug;
  } else if (name == "info") {
    *out = Level::kInfo;
  } else if (name == "warn") {
    *out = Level::kWarn;
  } else if (name == "error") {
    *out = Level::kError;
  } else {
    return false;
  }
  return true;
}

Field field(std::string key, std::string_view value) {
  return rendered(std::move(key), value);
}
Field field(std::string key, const char* value) {
  return rendered(std::move(key),
                  std::string_view(value == nullptr ? "" : value));
}
Field field(std::string key, u64 value) {
  return rendered(std::move(key), value);
}
Field field(std::string key, u32 value) {
  return rendered(std::move(key), value);
}
Field field(std::string key, i64 value) {
  return rendered(std::move(key), value);
}
Field field(std::string key, int value) {
  return rendered(std::move(key), value);
}
Field field(std::string key, double value) {
  Field f{std::move(key), {}};
  json::Writer(&f.json).fixed(value, 6);
  return f;
}
Field field(std::string key, bool value) {
  return rendered(std::move(key), value);
}

Logger::~Logger() {
  if (file_ != nullptr) std::fclose(file_);
}

void Logger::set_level(Level level) {
  std::lock_guard<std::mutex> lock(mutex_);
  level_ = level;
}

Level Logger::level() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return level_;
}

bool Logger::open_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  return true;
}

void Logger::set_clock(Clock clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

void Logger::set_registry(metrics::Registry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  registry_ = registry;
}

metrics::Registry* Logger::registry() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_;
}

u64 Logger::events_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_written_;
}

void Logger::set_capture(std::string* capture) {
  std::lock_guard<std::mutex> lock(mutex_);
  capture_ = capture;
}

void Logger::log(Level level, std::string_view kind, std::string_view message,
                 const std::vector<Field>& fields) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (level < level_) return;
  const double ts = clock_ ? clock_() : wall_clock_now();
  std::string line;
  json::Writer w(&line);
  w.begin_object(json::Layout::kInline);
  w.key("ts").fixed(ts, 6).key("level").value(level_name(level));
  w.key("kind").value(kind).key("msg").value(message);
  for (const Field& f : fields) w.key(f.key).raw(f.json);
  w.end();
  line += '\n';
  if (capture_ != nullptr) {
    *capture_ += line;
  } else {
    std::FILE* sink = file_ != nullptr ? file_ : stderr;
    std::fwrite(line.data(), 1, line.size(), sink);
    std::fflush(sink);
  }
  ++events_written_;
  if (registry_ != nullptr) {
    if (metrics::Counter* counter = registry_->counter(
            "reese_fleet_events_total", {{"kind", std::string(kind)}},
            "Structured log events by kind")) {
      counter->inc();
    }
  }
}

Logger& global() {
  static Logger logger;
  return logger;
}

}  // namespace reese::log
