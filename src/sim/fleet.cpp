#include "sim/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/http.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "sim/progress.h"

namespace reese::sim::fleet {

namespace {

constexpr int kFleetPid = 1;
constexpr u32 kCoordinatorTid = 0;

log::Logger& logger_of(const FleetConfig& config) {
  return config.logger != nullptr ? *config.logger : log::global();
}

http::RequestOptions wire_options(const FleetConfig& config, double deadline_s,
                                  u64 jitter_seed) {
  http::RequestOptions options;
  options.deadline_s = deadline_s;
  options.max_retries = config.max_retries;
  options.backoff_ms = config.backoff_ms;
  options.backoff_max_ms = config.backoff_max_ms;
  options.jitter_seed = jitter_seed;
  if (!config.auth_token.empty()) {
    options.headers.push_back(
        {"Authorization", "Bearer " + config.auth_token});
  }
  return options;
}

std::string worker_name(const Worker& worker) {
  return format("%s:%u", worker.host.c_str(), worker.port);
}

/// Fleet-timeline emitter (DESIGN.md §17): the campaign's wall-clock
/// story as Chrome trace_event JSON on one "reese-fleet" process —
/// coordinator on tid 0, one track per worker, dispatch/run/merge X
/// slices per shard attempt, a flow arrow from each dispatch to its
/// merge, instants for probe failures, worker deaths and re-dispatches.
/// Timestamps are microseconds of real time since construction (unlike
/// ChromeTraceTracer's simulated-cycle clock). Thread-safe: coordinator
/// worker threads emit concurrently.
class FleetTracer {
 public:
  FleetTracer(core::TraceSink* sink, u64 trace_id)
      : sink_(sink),
        trace_id_(trace_id),
        epoch_(std::chrono::steady_clock::now()) {
    metadata("process_name", kCoordinatorTid, "reese-fleet");
    thread_name(kCoordinatorTid, "coordinator");
  }
  ~FleetTracer() { finish(); }

  FleetTracer(const FleetTracer&) = delete;
  FleetTracer& operator=(const FleetTracer&) = delete;

  u64 trace_id() const { return trace_id_; }

  void thread_name(u32 tid, const std::string& name) {
    metadata("thread_name", tid, name);
  }

  /// Microseconds of real time since the campaign started.
  u64 now_us() const {
    const auto elapsed = std::chrono::steady_clock::now() - epoch_;
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
  }

  void slice(u32 tid, const std::string& name, u64 begin_us, u64 end_us,
             const std::string& args_json) {
    const u64 duration = end_us >= begin_us ? end_us - begin_us : 0;
    emit([&](json::Writer& w) {
      w.key("name").value(name).key("ph").value("X");
      w.key("pid").value(kFleetPid).key("tid").value(tid);
      w.key("ts").value(begin_us).key("dur").value(duration);
      w.key("args").raw(args_json);
    });
  }

  void instant(u32 tid, const char* name, u64 ts_us,
               const std::string& args_json) {
    emit([&](json::Writer& w) {
      w.key("name").value(name).key("ph").value("i").key("s").value("t");
      w.key("pid").value(kFleetPid).key("tid").value(tid);
      w.key("ts").value(ts_us).key("args").raw(args_json);
    });
  }

  /// One dispatch→merge arrow. Start and finish are emitted together (the
  /// start retroactively at the dispatch timestamp), so every flow in the
  /// document balances even when a worker dies mid-shard — a dead attempt
  /// simply has no arrow.
  void flow(u32 tid, u64 start_us, u64 finish_us, u64 flow_id) {
    for (const bool start : {true, false}) {
      emit([&](json::Writer& w) {
        w.key("name").value("dispatch-to-merge").key("cat").value("fleet");
        w.key("ph").value(start ? "s" : "f");
        if (!start) w.key("bp").value("e");
        w.key("pid").value(kFleetPid).key("tid").value(tid);
        w.key("ts").value(start ? start_us : std::max(start_us, finish_us));
        w.key("id").value(flow_id);
      });
    }
  }

  void finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) return;
    finished_ = true;
    sink_->write("\n]}\n");
  }

 private:
  void metadata(const char* event, u32 tid, const std::string& name) {
    emit([&](json::Writer& w) {
      w.key("name").value(event).key("ph").value("M");
      w.key("pid").value(kFleetPid).key("tid").value(tid);
      w.key("args").begin_object(json::Layout::kCompact);
      w.key("name").value(name).end();
    });
  }

  /// Append one compact event object, whose members `fill` writes.
  template <typename Fill>
  void emit(Fill fill) {
    std::string event;
    json::Writer w(&event);
    w.begin_object(json::Layout::kCompact);
    fill(w);
    w.end();
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) return;
    sink_->write(first_ ? "{\"traceEvents\": [\n" : ",\n");
    first_ = false;
    sink_->write(event);
  }

  core::TraceSink* sink_;
  u64 trace_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;
  bool first_ = true;
  bool finished_ = false;
};

/// Shared dispatch state: one shard queue, one merge target. Worker
/// threads block on `cv` for pending shards (a dead worker's shard comes
/// *back* onto the queue, so survivors must wake up for it).
struct Dispatch {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<usize> pending;
  usize completed = 0;
  usize total = 0;
  u32 alive_workers = 0;
  bool fatal = false;
  bool cancelled = false;
  std::string error;
  u64 cells_done = 0;
  u64 cells_total = 0;
  u64 committed = 0;
  CampaignMatrix merged;

  // Observability plumbing (DESIGN.md §17). next_span and
  // dispatch_counts are guarded by `mutex`; logger/tracer are themselves
  // thread-safe.
  log::Logger* logger = nullptr;
  FleetTracer* tracer = nullptr;
  u64 trace_id = 0;
  u64 next_span = 1;
  std::vector<u32> dispatch_counts;  ///< attempts so far, per shard
  std::vector<u64> shard_cell_totals;  ///< const after setup

  void fail(const std::string& message) {
    if (!fatal) {
      fatal = true;
      error = message;
    }
  }
  bool finished() const {
    return fatal || cancelled || completed == total;
  }
};

/// Per-attempt identity: which shard, which try, which span. Minted under
/// the dispatch mutex when a worker thread claims a shard.
struct Attempt {
  usize shard_index = 0;
  u32 number = 0;  ///< 1-based dispatch count for this shard
  u64 span = 0;
};

std::string trace_header_value(u64 trace_id, u64 span) {
  http::TraceContext context;
  context.trace_id = trace_id;
  context.span_id = span;
  return context.header_value();
}

/// Standard structured-log fields tying an event to a shard attempt.
std::vector<log::Field> attempt_fields(const Worker& worker,
                                       const CampaignSpec& shard,
                                       const Attempt& attempt,
                                       u64 trace_id) {
  return {log::field("worker", worker_name(worker)),
          log::field("shard", static_cast<u64>(attempt.shard_index)),
          log::field("replica_begin", shard.replica_begin),
          log::field("replicas", shard.replicas),
          log::field("attempt", attempt.number),
          log::field("trace", trace_header_value(trace_id, attempt.span)),
          log::field("span", attempt.span)};
}

/// args payload shared by the timeline slices of one shard attempt.
std::string slice_args(const Worker& worker, const Attempt& attempt,
                       u64 trace_id) {
  std::string out;
  json::Writer w(&out);
  w.begin_object(json::Layout::kInline);
  w.key("shard").value(attempt.shard_index).key("span").value(attempt.span);
  w.key("trace").value(trace_header_value(trace_id, attempt.span));
  w.key("worker").value(worker_name(worker)).end();
  return out;
}

enum class ShardOutcome {
  kDone,        ///< placed into the merged matrix
  kRequeue,     ///< worker is alive but lost the job (restart); retry shard
  kWorkerDead,  ///< transport gone past the retry budget; requeue + exit
  kFatal,       ///< deterministic failure; campaign aborted
  kCancelled,   ///< spec.cancel fired
};

ShardOutcome run_shard(http::Client* client, const Worker& worker, u32 tid,
                       const FleetConfig& config,
                       const CampaignSpec& resolved,
                       const CampaignSpec& shard, const Attempt& attempt,
                       Dispatch* dispatch,
                       const std::function<bool()>& cancel) {
  const u64 jitter_seed =
      SplitMix64(resolved.seed ^ (static_cast<u64>(shard.replica_begin) + 1))
          .next();
  http::RequestOptions request_options =
      wire_options(config, config.request_deadline_s, jitter_seed);
  // Every request of this attempt carries the campaign trace id and the
  // attempt's span id; the worker tags its job and log events with them.
  request_options.headers.push_back(
      {http::kTraceHeader,
       trace_header_value(dispatch->trace_id, attempt.span)});

  const std::string shard_label =
      format("r[%u,%u)", shard.replica_begin,
             shard.replica_begin + shard.replicas);
  const u64 shard_cells = dispatch->shard_cell_totals[attempt.shard_index];

  // Per-shard rollup to CampaignSpec::shard_progress (the service folds
  // these into GET /v1/jobs/<id>/progress).
  const auto report = [&](const char* state, u64 cells_done, u64 committed,
                          double kips) {
    if (!resolved.shard_progress) return;
    ShardProgressUpdate update;
    update.shard_index = attempt.shard_index;
    update.replica_begin = shard.replica_begin;
    update.replicas = shard.replicas;
    update.state = state;
    update.worker = worker_name(worker);
    update.cells_done = cells_done;
    update.cells_total = shard_cells;
    update.committed = committed;
    update.kips = kips;
    update.dispatches = attempt.number;
    resolved.shard_progress(update);
  };

  const auto fatal = [&](const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(dispatch->mutex);
      dispatch->fail(message);
    }
    dispatch->logger->error(
        "campaign_failed", message,
        attempt_fields(worker, shard, attempt, dispatch->trace_id));
    return ShardOutcome::kFatal;
  };

  // Submit the shard.
  FleetTracer* tracer = dispatch->tracer;
  const u64 t_dispatch_begin = tracer != nullptr ? tracer->now_us() : 0;
  const std::string body =
      campaign_spec_json(shard, config.shard_timeout_s);
  http::Response response =
      client->request("POST", "/v1/campaigns", body, request_options);
  if (response.status == 0) return ShardOutcome::kWorkerDead;
  if (response.status != 202) {
    const std::string detail(trim(response.body));
    return fatal(format("worker %s rejected shard %s: %d %s",
                        worker_name(worker).c_str(), shard_label.c_str(),
                        response.status, detail.c_str()));
  }
  Result<json::Value> accepted = json::parse_json(response.body);
  const json::Value* id_value =
      accepted.ok() ? accepted.value().find("id") : nullptr;
  if (id_value == nullptr || !id_value->is_integer) {
    return fatal(format("worker %s returned an unparseable submit response",
                        worker_name(worker).c_str()));
  }
  const u64 job_id = id_value->uint_value;
  const std::string job_path = format("/v1/jobs/%llu",
                                      static_cast<unsigned long long>(job_id));
  const u64 t_dispatch_end = tracer != nullptr ? tracer->now_us() : 0;
  if (tracer != nullptr) {
    tracer->slice(tid, "dispatch " + shard_label, t_dispatch_begin,
                  t_dispatch_end,
                  slice_args(worker, attempt, dispatch->trace_id));
  }
  dispatch->logger->info(
      "shard_dispatch",
      format("shard %s dispatched to %s as job %llu", shard_label.c_str(),
             worker_name(worker).c_str(),
             static_cast<unsigned long long>(job_id)),
      attempt_fields(worker, shard, attempt, dispatch->trace_id));
  report("dispatched", 0, 0, 0.0);

  // Poll the job's progress until it reaches a terminal state; each poll
  // carries the live per-shard numbers up into the coordinator's rollup.
  while (true) {
    if (cancel && cancel()) {
      std::lock_guard<std::mutex> lock(dispatch->mutex);
      dispatch->cancelled = true;
      return ShardOutcome::kCancelled;
    }
    response =
        client->request("GET", job_path + "/progress", "", request_options);
    if (response.status == 0) return ShardOutcome::kWorkerDead;
    if (response.status == 404 || response.status == 410) {
      // The worker restarted (fresh job table) or pruned the job: it is
      // alive, it just lost our work — resubmit the shard.
      return ShardOutcome::kRequeue;
    }
    if (response.status != 200) {
      return fatal(format("worker %s: job %llu progress fetch failed: %d",
                          worker_name(worker).c_str(),
                          static_cast<unsigned long long>(job_id),
                          response.status));
    }
    Result<json::Value> progress = json::parse_json(response.body);
    const json::Value* state =
        progress.ok() ? progress.value().find("state") : nullptr;
    if (state == nullptr || !state->is_string()) {
      return fatal(format("worker %s returned an unparseable job progress",
                          worker_name(worker).c_str()));
    }
    const auto number_field = [&](const char* key) -> double {
      const json::Value* value = progress.value().find(key);
      return value != nullptr && value->is_number() ? value->number : 0.0;
    };
    report("running", static_cast<u64>(number_field("cells_done")),
           static_cast<u64>(number_field("committed")),
           number_field("kips"));
    if (state->string == "done") break;
    if (state->string == "failed" || state->string == "timeout") {
      // Deterministic on re-dispatch too (same cells, same budget): abort
      // with the worker's diagnosis instead of looping the fleet on it.
      // The error detail lives on the status document, not the progress
      // rollup — fetch it for the diagnostic.
      std::string detail;
      const http::Response status_response =
          client->request("GET", job_path, "", request_options);
      if (status_response.status == 200) {
        Result<json::Value> status = json::parse_json(status_response.body);
        const json::Value* job_error =
            status.ok() ? status.value().find("error") : nullptr;
        if (job_error != nullptr && job_error->is_string()) {
          detail = job_error->string;
        }
      }
      return fatal(format("worker %s: shard %s ended in state %s%s%s",
                          worker_name(worker).c_str(), shard_label.c_str(),
                          state->string.c_str(), detail.empty() ? "" : ": ",
                          detail.c_str()));
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        config.poll_interval_ms > 0.0 ? config.poll_interval_ms : 50.0));
  }
  const u64 t_run_end = tracer != nullptr ? tracer->now_us() : 0;
  if (tracer != nullptr) {
    tracer->slice(tid, "run " + shard_label, t_dispatch_end, t_run_end,
                  slice_args(worker, attempt, dispatch->trace_id));
  }

  // Fetch the lossless per-cell matrix and merge it.
  http::RequestOptions fetch_options =
      wire_options(config, config.fetch_deadline_s, jitter_seed);
  fetch_options.headers.push_back(
      {http::kTraceHeader,
       trace_header_value(dispatch->trace_id, attempt.span)});
  response = client->request("GET", job_path + "/result?format=cells", "",
                             fetch_options);
  if (response.status == 0) return ShardOutcome::kWorkerDead;
  if (response.status == 404 || response.status == 410) {
    return ShardOutcome::kRequeue;
  }
  if (response.status != 200) {
    return fatal(format("worker %s: shard result fetch failed: %d",
                        worker_name(worker).c_str(), response.status));
  }
  CampaignWire wire;
  std::string wire_error;
  if (!deserialize_campaign_matrix(response.body, &wire, &wire_error)) {
    return fatal(format("worker %s: %s", worker_name(worker).c_str(),
                        wire_error.c_str()));
  }

  u64 shard_committed = 0;
  u64 shard_cells_merged = 0;
  for (const auto& workloads : wire.matrix.cells) {
    for (const auto& cells : workloads) {
      for (const CampaignCell& cell : cells) {
        shard_committed += cell.committed;
        ++shard_cells_merged;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(dispatch->mutex);
    if (!place_shard(resolved, wire, &dispatch->merged, &wire_error)) {
      dispatch->fail(format("worker %s: %s", worker_name(worker).c_str(),
                            wire_error.c_str()));
      return ShardOutcome::kFatal;
    }
    ++dispatch->completed;
    dispatch->cells_done += shard_cells_merged;
    dispatch->committed += shard_committed;
  }
  const u64 t_merge_end = tracer != nullptr ? tracer->now_us() : 0;
  if (tracer != nullptr) {
    tracer->slice(tid, "merge " + shard_label, t_run_end, t_merge_end,
                  slice_args(worker, attempt, dispatch->trace_id));
    tracer->flow(tid, t_dispatch_end, t_run_end, attempt.span);
  }
  {
    std::vector<log::Field> fields =
        attempt_fields(worker, shard, attempt, dispatch->trace_id);
    fields.push_back(log::field("cells", shard_cells_merged));
    fields.push_back(log::field("committed", shard_committed));
    dispatch->logger->info(
        "shard_merged",
        format("shard %s merged from %s", shard_label.c_str(),
               worker_name(worker).c_str()),
        fields);
  }
  report("merged", shard_cells_merged, shard_committed, 0.0);
  return ShardOutcome::kDone;
}

void worker_loop(const FleetConfig& config, const Worker& worker, u32 tid,
                 const CampaignSpec& resolved,
                 const std::vector<CampaignSpec>& shards,
                 Dispatch* dispatch) {
  // One persistent keep-alive connection per worker thread: submit, every
  // poll and the result fetch ride the same socket.
  http::Client client(worker.host, worker.port);
  while (true) {
    Attempt attempt;
    {
      std::unique_lock<std::mutex> lock(dispatch->mutex);
      dispatch->cv.wait(lock, [dispatch] {
        return dispatch->finished() || !dispatch->pending.empty();
      });
      if (dispatch->finished()) return;
      attempt.shard_index = dispatch->pending.front();
      dispatch->pending.pop_front();
      attempt.number = ++dispatch->dispatch_counts[attempt.shard_index];
      attempt.span = dispatch->next_span++;
    }
    const CampaignSpec& shard = shards[attempt.shard_index];

    const ShardOutcome outcome =
        run_shard(&client, worker, tid, config, resolved, shard, attempt,
                  dispatch, resolved.cancel);
    switch (outcome) {
      case ShardOutcome::kDone: {
        u64 done = 0;
        u64 total = 0;
        u64 committed = 0;
        {
          std::lock_guard<std::mutex> lock(dispatch->mutex);
          done = dispatch->cells_done;
          total = dispatch->cells_total;
          committed = dispatch->committed;
        }
        if (resolved.progress) resolved.progress({done, total, committed});
        dispatch->cv.notify_all();
        break;
      }
      case ShardOutcome::kRequeue: {
        {
          std::lock_guard<std::mutex> lock(dispatch->mutex);
          dispatch->pending.push_front(attempt.shard_index);
        }
        dispatch->logger->info(
            "shard_redispatch",
            format("worker %s lost job for shard %zu; re-dispatching",
                   worker_name(worker).c_str(), attempt.shard_index),
            attempt_fields(worker, shard, attempt, dispatch->trace_id));
        if (dispatch->tracer != nullptr) {
          dispatch->tracer->instant(
              kCoordinatorTid, "re-dispatch", dispatch->tracer->now_us(),
              slice_args(worker, attempt, dispatch->trace_id));
        }
        if (resolved.shard_progress) {
          ShardProgressUpdate update;
          update.shard_index = attempt.shard_index;
          update.replica_begin = shard.replica_begin;
          update.replicas = shard.replicas;
          update.state = "re-dispatched";
          update.worker = worker_name(worker);
          update.cells_total =
              dispatch->shard_cell_totals[attempt.shard_index];
          update.dispatches = attempt.number;
          resolved.shard_progress(update);
        }
        dispatch->cv.notify_all();
        break;
      }
      case ShardOutcome::kWorkerDead: {
        {
          std::lock_guard<std::mutex> lock(dispatch->mutex);
          dispatch->pending.push_front(attempt.shard_index);
          --dispatch->alive_workers;
          if (dispatch->alive_workers == 0 &&
              dispatch->completed < dispatch->total) {
            dispatch->fail("every worker became unreachable with shards "
                           "still pending");
          }
        }
        dispatch->logger->warn(
            "worker_dead",
            format("worker %s unreachable; re-dispatching shard %zu",
                   worker_name(worker).c_str(), attempt.shard_index),
            attempt_fields(worker, shard, attempt, dispatch->trace_id));
        if (dispatch->tracer != nullptr) {
          const u64 now = dispatch->tracer->now_us();
          dispatch->tracer->instant(
              tid, "worker-dead", now,
              slice_args(worker, attempt, dispatch->trace_id));
          dispatch->tracer->instant(
              kCoordinatorTid, "re-dispatch", now,
              slice_args(worker, attempt, dispatch->trace_id));
        }
        if (resolved.shard_progress) {
          ShardProgressUpdate update;
          update.shard_index = attempt.shard_index;
          update.replica_begin = shard.replica_begin;
          update.replicas = shard.replicas;
          update.state = "re-dispatched";
          update.worker = worker_name(worker);
          update.cells_total =
              dispatch->shard_cell_totals[attempt.shard_index];
          update.dispatches = attempt.number;
          resolved.shard_progress(update);
        }
        dispatch->cv.notify_all();
        return;
      }
      case ShardOutcome::kFatal:
      case ShardOutcome::kCancelled:
        dispatch->cv.notify_all();
        return;
    }
  }
}

/// Nonzero campaign trace id: the configured one, or minted from the
/// campaign seed and a process-wide counter so two campaigns in one
/// coordinator process never collide.
u64 mint_trace_id(const FleetConfig& config, u64 seed) {
  if (config.trace_id != 0) return config.trace_id;
  static std::atomic<u64> campaign_counter{0};
  const u64 nonce =
      campaign_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  u64 trace_id = SplitMix64(seed ^ (nonce * 0x9E3779B97F4A7C15ull)).next();
  return trace_id != 0 ? trace_id : 1;
}

}  // namespace

bool parse_worker_address(const std::string& address, Worker* out,
                          std::string* error) {
  const usize colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    if (error != nullptr) {
      *error = "worker address must be host:port, got \"" + address + "\"";
    }
    return false;
  }
  i64 port = 0;
  if (!parse_int(std::string_view(address).substr(colon + 1), &port) ||
      port < 1 || port > 65535) {
    if (error != nullptr) {
      *error = "bad port in worker address \"" + address + "\"";
    }
    return false;
  }
  out->host = address.substr(0, colon);
  out->port = static_cast<u16>(port);
  return true;
}

bool load_workers_file(const std::string& path, std::vector<Worker>* out,
                       std::string* error) {
  FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open workers file " + path;
    return false;
  }
  std::string contents;
  char chunk[4096];
  usize got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    contents.append(chunk, got);
  }
  std::fclose(file);

  for (std::string_view raw_line : split(contents, '\n')) {
    const std::string_view line = trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    Worker worker;
    if (!parse_worker_address(std::string(line), &worker, error)) {
      return false;
    }
    out->push_back(std::move(worker));
  }
  if (out->empty()) {
    if (error != nullptr) *error = "workers file " + path + " lists no workers";
    return false;
  }
  return true;
}

bool probe_worker(const Worker& worker, const FleetConfig& config,
                  int* attempts) {
  log::Logger& logger = logger_of(config);
  const int max_attempts = std::max(1, config.max_retries + 1);
  // One attempt per iteration with the transport's own retries disabled:
  // the transport layer only retries transport failures and 429, so a
  // worker answering 503 while it drains (or any other transient refusal)
  // would be declared dead on its first word. This loop retries on *any*
  // non-200 with a deterministic backoff instead.
  double delay_ms = config.backoff_ms > 0.0 ? config.backoff_ms : 100.0;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    http::RequestOptions options;
    options.deadline_s = config.probe_deadline_s;
    options.max_retries = 0;
    if (!config.auth_token.empty()) {
      options.headers.push_back(
          {"Authorization", "Bearer " + config.auth_token});
    }
    const http::Response response = http::request(
        worker.host, worker.port, "GET", "/v1/healthz", "", options);
    if (response.status == 200) {
      if (attempts != nullptr) *attempts = attempt;
      return true;
    }
    logger.warn("probe_attempt_failed",
                format("worker %s probe attempt %d/%d failed (status %d)",
                       worker_name(worker).c_str(), attempt, max_attempts,
                       response.status),
                {log::field("worker", worker_name(worker)),
                 log::field("attempt", attempt),
                 log::field("max_attempts", max_attempts),
                 log::field("status", response.status)});
    if (attempt < max_attempts) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
      delay_ms = std::min(delay_ms * 2.0, config.backoff_max_ms > 0.0
                                              ? config.backoff_max_ms
                                              : delay_ms * 2.0);
    }
  }
  if (attempts != nullptr) *attempts = max_attempts;
  return false;
}

bool collect_fleet_metrics(const FleetConfig& config, metrics::Registry* out,
                           std::string* error) {
  for (const Worker& worker : config.workers) {
    const std::string name = worker_name(worker);
    metrics::Gauge* up = out->gauge(
        "reese_fleet_worker_up", {{"worker", name}},
        "1 when the worker answered the last federation scrape");
    http::RequestOptions options;
    options.deadline_s = config.request_deadline_s;
    if (!config.auth_token.empty()) {
      options.headers.push_back(
          {"Authorization", "Bearer " + config.auth_token});
    }
    const http::Response response = http::request(
        worker.host, worker.port, "GET", "/v1/metrics", "", options);
    if (response.status != 200) {
      if (up != nullptr) up->set(0.0);
      continue;
    }
    if (up != nullptr) up->set(1.0);
    std::vector<metrics::Sample> samples;
    std::string detail;
    if (!metrics::parse_prometheus(response.body, &samples, &detail)) {
      if (error != nullptr) {
        *error = format("worker %s: %s", name.c_str(), detail.c_str());
      }
      return false;
    }
    if (!out->merge_from(samples, {{"worker", name}}, &detail)) {
      if (error != nullptr) {
        *error = format("worker %s: %s", name.c_str(), detail.c_str());
      }
      return false;
    }
  }
  return true;
}

std::string campaign_spec_json(const CampaignSpec& shard, double timeout_s) {
  // Every field is the *resolved* value: a worker must not re-resolve
  // defaults (and must never see quick=true, which would clamp the shard
  // back to one replica).
  std::string out;
  json::Writer w(&out);
  w.begin_object(json::Layout::kInline);
  w.key("workloads").begin_array(json::Layout::kInline);
  for (const std::string& workload : shard.workloads) w.value(workload);
  w.end();
  w.key("variants").begin_array(json::Layout::kInline);
  for (const CampaignVariant& variant : shard.variants) w.value(variant.label);
  w.end();
  w.key("replicas").value(shard.replicas);
  w.key("replica_begin").value(shard.replica_begin);
  w.key("instructions").value(shard.instructions);
  // 17 significant digits round-trip an IEEE double exactly, so the
  // worker's injector sees bit-identical rate.
  w.key("rate").significant(shard.rate, 17);
  w.key("seed").value(shard.seed);
  if (timeout_s > 0.0) w.key("timeout_s").significant(timeout_s, 6);
  w.end();
  return out;
}

bool run_fleet_campaign(const FleetConfig& config, const CampaignSpec& spec,
                        CampaignResult* result, std::string* error) {
  log::Logger& logger = logger_of(config);
  const auto fail = [error, &logger](const std::string& message) {
    if (error != nullptr) *error = message;
    logger.error("campaign_failed", message);
    return false;
  };
  if (config.workers.empty()) return fail("fleet has no workers configured");

  const CampaignSpec resolved = resolve_campaign_defaults(spec);
  if (!resolved.programs.empty()) {
    return fail("fleet mode cannot ship fixed program images to workers");
  }
  // The wire spec names variants by label; anything the worker cannot
  // reconstruct from the label alone (standard five or component
  // "base@site") would silently resolve differently over there.
  for (const CampaignVariant& variant : resolved.variants) {
    CampaignVariant reconstructed;
    if (!campaign_variant_by_label(variant.label, &reconstructed)) {
      return fail("fleet mode supports label-resolvable campaign variants "
                  "only (standard or \"base@site\"), got \"" +
                  variant.label + "\"");
    }
  }

  // Fleet timeline (DESIGN.md §17): an injected sink wins, else the
  // --fleet-trace-out path. A path that cannot be opened degrades to "no
  // timeline" with a logged error — tracing is observability, not
  // campaign correctness.
  const u64 trace_id = mint_trace_id(config, resolved.seed);
  std::unique_ptr<core::FileTraceSink> file_sink;
  core::TraceSink* sink = config.trace_sink;
  if (sink == nullptr && !config.trace_path.empty()) {
    file_sink = std::make_unique<core::FileTraceSink>(config.trace_path);
    if (file_sink->ok()) {
      sink = file_sink.get();
    } else {
      logger.error("trace_open_failed",
                   "cannot open fleet trace file " + config.trace_path,
                   {log::field("path", config.trace_path)});
      file_sink.reset();
    }
  }
  std::unique_ptr<FleetTracer> tracer;
  if (sink != nullptr) tracer = std::make_unique<FleetTracer>(sink, trace_id);

  std::vector<Worker> alive;
  for (const Worker& worker : config.workers) {
    int attempts = 0;
    if (probe_worker(worker, config, &attempts)) {
      alive.push_back(worker);
    } else {
      logger.warn("probe_failed",
                  format("worker %s failed its health probe after %d attempts",
                         worker_name(worker).c_str(), attempts),
                  {log::field("worker", worker_name(worker)),
                   log::field("attempts", attempts),
                   log::field("trace", trace_header_value(trace_id, 0))});
      if (tracer != nullptr) {
        std::string args;
        json::Writer w(&args);
        w.begin_object(json::Layout::kInline);
        w.key("worker").value(worker_name(worker));
        w.key("attempts").value(attempts).end();
        tracer->instant(kCoordinatorTid, "probe-failure", tracer->now_us(),
                        args);
      }
    }
  }
  if (alive.empty()) return fail("no reachable workers");
  if (tracer != nullptr) {
    for (usize w = 0; w < alive.size(); ++w) {
      tracer->thread_name(static_cast<u32>(w) + 1,
                          "worker " + worker_name(alive[w]));
    }
  }

  const usize shard_target =
      std::min<usize>(resolved.replicas,
                      alive.size() * std::max(1u, config.shards_per_worker));
  const std::vector<CampaignSpec> shards =
      split_campaign_spec(resolved, shard_target);

  Dispatch dispatch;
  dispatch.total = shards.size();
  for (usize s = 0; s < shards.size(); ++s) dispatch.pending.push_back(s);
  dispatch.alive_workers = static_cast<u32>(alive.size());
  dispatch.cells_total = static_cast<u64>(resolved.variants.size()) *
                         resolved.workloads.size() * resolved.replicas;
  dispatch.merged = make_campaign_matrix(resolved);
  dispatch.logger = &logger;
  dispatch.tracer = tracer.get();
  dispatch.trace_id = trace_id;
  dispatch.dispatch_counts.assign(shards.size(), 0);
  const u64 cells_per_replica = static_cast<u64>(resolved.variants.size()) *
                                resolved.workloads.size();
  dispatch.shard_cell_totals.reserve(shards.size());
  for (const CampaignSpec& shard : shards) {
    dispatch.shard_cell_totals.push_back(cells_per_replica * shard.replicas);
  }

  logger.info(
      "campaign_start",
      format("fleet campaign across %zu workers in %zu shards", alive.size(),
             shards.size()),
      {log::field("workers", static_cast<u64>(alive.size())),
       log::field("shards", static_cast<u64>(shards.size())),
       log::field("replicas", resolved.replicas),
       log::field("cells", dispatch.cells_total),
       log::field("trace", trace_header_value(trace_id, 0))});
  if (resolved.shard_progress) {
    for (usize s = 0; s < shards.size(); ++s) {
      ShardProgressUpdate update;
      update.shard_index = s;
      update.replica_begin = shards[s].replica_begin;
      update.replicas = shards[s].replicas;
      update.state = "queued";
      update.cells_total = dispatch.shard_cell_totals[s];
      resolved.shard_progress(update);
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(alive.size());
  for (usize w = 0; w < alive.size(); ++w) {
    threads.emplace_back(worker_loop, std::cref(config), std::cref(alive[w]),
                         static_cast<u32>(w) + 1, std::cref(resolved),
                         std::cref(shards), &dispatch);
  }
  for (std::thread& thread : threads) thread.join();
  if (tracer != nullptr) tracer->finish();

  if (dispatch.fatal) {
    if (error != nullptr) *error = dispatch.error;
    // run_shard/worker_loop already logged the specific failure.
    return false;
  }
  result->spec = resolved;
  result->matrix = std::move(dispatch.merged);
  result->cancelled = dispatch.cancelled;
  logger.info("campaign_done",
              format("fleet campaign merged %llu cells",
                     static_cast<unsigned long long>(dispatch.cells_done)),
              {log::field("cells", dispatch.cells_done),
               log::field("committed", dispatch.committed),
               log::field("cancelled", dispatch.cancelled),
               log::field("trace", trace_header_value(trace_id, 0))});
  return true;
}

}  // namespace reese::sim::fleet
