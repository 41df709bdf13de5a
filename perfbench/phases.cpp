// The four measured phases and the loopback environment they run against.
//
// Every phase repeats whole operations until its share of --seconds has
// elapsed, so one run's figures aggregate many operations. Outputs are
// checked on every repeat, not only the first.
#include <pthread.h>
#include <sched.h>

#include <cstdio>

#include "bench.h"
#include "common/json.h"
#include "common/strutil.h"
#include "core/chrome_trace.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace reese;

namespace {

double elapsed_s(Clock::time_point since) {
  return seconds_between(since, Clock::now());
}

/// Pins the calling thread to one CPU of its allowed set for its lifetime,
/// then restores the set. On a shared host each vCPU is slowed by its own
/// neighbours, and the slowdown moves over minutes; pinning successive grid
/// passes to successive CPUs spreads a run's passes over all of them, so one
/// congested vCPU cannot set a whole run's figures. Threads started while
/// pinned would inherit the single CPU, so only the one-worker grid, which
/// starts none, runs under it.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(usize index) {
    pinned_ = pthread_getaffinity_np(pthread_self(), sizeof(saved_),
                                     &saved_) == 0;
    const int count = CPU_COUNT(&saved_);
    if (!pinned_ || count < 2) {
      pinned_ = false;
      return;
    }
    int wanted = static_cast<int>(index % static_cast<usize>(count));
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_) && wanted-- == 0) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~PinnedToCpu() {
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }

  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

std::string hex64(u64 value) {
  return format("%016llx", static_cast<unsigned long long>(value));
}

sim::ServiceConfig with_logger(sim::ServiceConfig config, log::Logger* logger) {
  config.logger = logger;
  return config;
}

sim::ServiceConfig daemon_config() {
  sim::ServiceConfig config;
  config.workers = 1;
  config.grid_jobs = 1;
  return config;
}

/// Coverage expectations that hold for any correct campaign result: full
/// re-execution REESE detects every resolved flip, the baseline none, and
/// no fault is ever reported twice.
bool coverage_holds(const sim::CampaignResult& result, Checker* checker) {
  bool ok = !result.cancelled;
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    const sim::CampaignVariant& variant = result.spec.variants[v];
    const sim::CampaignCell total = result.variant_total(v);
    if (variant.expect_full_coverage &&
        (total.resolved() == 0 || total.detected != total.resolved())) {
      checker->note_failure(
          format("%s: full re-execution coverage below 100%% (%llu of %llu)",
                 variant.label.c_str(),
                 static_cast<unsigned long long>(total.detected),
                 static_cast<unsigned long long>(total.resolved())));
      ok = false;
    }
    if (variant.expect_zero_coverage && total.detected != 0) {
      checker->note_failure(format("%s: baseline detected %llu faults",
                                   variant.label.c_str(),
                                   static_cast<unsigned long long>(
                                       total.detected)));
      ok = false;
    }
    if (total.duplicate_reports != 0) {
      checker->note_failure(format("%s: %llu duplicate fault reports",
                                   variant.label.c_str(),
                                   static_cast<unsigned long long>(
                                       total.duplicate_reports)));
      ok = false;
    }
  }
  return ok;
}

/// The fleet-timeline slices run_fleet_campaign emits into its trace sink,
/// as (name, duration ms) pairs.
std::vector<std::pair<std::string, double>> fleet_slices(
    const std::string& trace) {
  std::vector<std::pair<std::string, double>> slices;
  // The sink holds a Chrome trace document ({"traceEvents": [...]}); a
  // malformed one yields no slices, which the report shows as zeros.
  auto parsed = json::parse_json(trace);
  if (!parsed.ok()) return slices;
  const json::Value& root = parsed.value();
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) return slices;
  for (const json::Value& event : events->array) {
    const json::Value* ph = event.find("ph");
    const json::Value* name = event.find("name");
    const json::Value* dur = event.find("dur");
    if (ph == nullptr || name == nullptr || dur == nullptr) continue;
    if (ph->string != "X") continue;
    slices.emplace_back(name->string, dur->number / 1e3);
  }
  return slices;
}

}  // namespace

// --- environment -------------------------------------------------------------

Daemon::Daemon(const sim::ServiceConfig& config)
    : service_(with_logger(config, &logger_)),
      server_([this](const http::Request& request) {
        return service_.handle(request);
      }) {
  logger_.set_level(log::Level::kError);
  listening_ = server_.listen("127.0.0.1", 0);
  if (listening_) thread_ = std::thread([this] { server_.serve(); });
}

Daemon::~Daemon() {
  if (thread_.joinable()) {
    server_.request_stop();
    // A no-op connect unblocks accept() if ::shutdown alone does not.
    http::RequestOptions nudge;
    nudge.deadline_s = 1.0;
    http::request("127.0.0.1", server_.port(), "GET", "/v1/healthz", "",
                  nudge);
    thread_.join();
  }
  service_.drain();
}

std::unique_ptr<Environment> make_environment() {
  auto env = std::make_unique<Environment>();
  env->reesed = std::make_unique<Daemon>(daemon_config());
  for (int i = 0; i < 2; ++i) {
    env->fleet.push_back(std::make_unique<Daemon>(daemon_config()));
  }
  if (!env->reesed->listening() || !env->fleet[0]->listening() ||
      !env->fleet[1]->listening()) {
    std::fprintf(stderr, "perfbench: cannot listen on 127.0.0.1\n");
    return nullptr;
  }
  env->client =
      std::make_unique<http::Client>("127.0.0.1", env->reesed->port());
  if (env->client->request("GET", "/v1/healthz").status != 200) {
    std::fprintf(stderr, "perfbench: reesed does not answer /v1/healthz\n");
    return nullptr;
  }

  env->fleet_logger.set_level(log::Level::kError);
  sim::fleet::FleetConfig& fleet = env->fleet_config;
  for (const auto& daemon : env->fleet) {
    fleet.workers.push_back({"127.0.0.1", daemon->port()});
  }
  fleet.shards_per_worker = 2;
  // Short shards: poll at 5 ms instead of the daemon default 50 ms, or the
  // poll cadence, not dispatch and merge, would dominate the phase.
  fleet.poll_interval_ms = 5.0;
  fleet.max_retries = 1;
  fleet.backoff_ms = 5.0;
  fleet.backoff_max_ms = 20.0;
  fleet.probe_deadline_s = 2.0;
  fleet.logger = &env->fleet_logger;
  for (const sim::fleet::Worker& worker : fleet.workers) {
    if (!sim::fleet::probe_worker(worker, fleet)) {
      std::fprintf(stderr, "perfbench: fleet worker %u is unreachable\n",
                   static_cast<unsigned>(worker.port));
      return nullptr;
    }
  }
  return env;
}

// --- fig2_grid ---------------------------------------------------------------

void run_fig2_pass(const PhaseContext& ctx) {
  const Inputs& in = *ctx.inputs;
  Samples& s = *ctx.samples;
  const std::vector<std::string>& programs = in.regime->programs;
  const usize model_count = in.grid.models.size();
  const u64 budget = in.grid.instructions;
  if (s.cell_ref_s.empty()) {
    s.cell_ref_s.assign(programs.size(),
                        std::vector<std::vector<double>>(kModelCount));
  }

  // One cell's outcome: simulated stats that must match the reference and
  // every earlier repeat, and a stop at the commit target (the last cycle
  // may commit a few instructions past it).
  const auto check_cell = [&](usize w, usize m, const sim::ExperimentCell& c) {
    ++s.attempted;
    const std::string item =
        format("fig2 %s %s", programs[w].c_str(), model_key(m));
    bool ok = ctx.checker->check(
        item, format("%llu %llu %s", static_cast<unsigned long long>(c.cycles),
                     static_cast<unsigned long long>(c.committed),
                     core::stop_reason_name(c.stop)));
    if (c.stop != core::StopReason::kCommitTarget || c.committed < budget) {
      ctx.checker->note_failure(item + " stopped before its commit target");
      ok = false;
    }
    if (!ok) ++s.failed;
  };

  const PinnedToCpu pinned(s.grid_pass_s.size());
  s.probe_s.push_back(host_probe_s());
  const double to_reference = s.to_reference();
  const Clock::time_point pass_begin = Clock::now();
  const double pass_cpu_begin = thread_cpu_s();
  const u64 pass_span = ctx.spans != nullptr ? ctx.spans->reserve() : 0;

  // At one worker the grid runs its cells in (program, model) order on
  // this thread, so the progress callback marks each cell's end.
  Clock::time_point cell_begin = pass_begin;
  double cell_cpu_begin = pass_cpu_begin;
  sim::ExperimentSpec spec = in.grid;
  spec.progress = [&](const sim::ProgressUpdate& update) {
    const Clock::time_point now = Clock::now();
    const double cpu_now = thread_cpu_s();
    const usize index = update.cells_done - 1;
    const usize w = index / model_count;
    const usize m = index % model_count;
    s.cell_ref_s[w][m].push_back((cpu_now - cell_cpu_begin) * to_reference);
    if (ctx.spans != nullptr) {
      ctx.spans->record("core", format("cell %s/%s", programs[w].c_str(),
                                       model_key(m)),
                        cell_begin, now, pass_span);
    }
    cell_begin = now;
    cell_cpu_begin = cpu_now;
  };
  const sim::ExperimentResult result = sim::run_experiment(spec);
  for (usize w = 0; w < programs.size(); ++w) {
    for (usize m = 0; m < model_count; ++m) {
      const sim::ExperimentCell& cell = result.cells[w][m][0];
      s.model_committed[m] += cell.committed;
      check_cell(w, m, cell);
    }
  }

  // The Franklin column, cell by cell as bench/abl_franklin runs it.
  for (usize w = 0; w < programs.size(); ++w) {
    const Clock::time_point begin = Clock::now();
    const double cpu_begin = thread_cpu_s();
    workloads::WorkloadOptions options;
    options.seed = in.grid.seed;
    sim::Simulator simulator(
        workloads::make_workload(programs[w], options).value(),
        model_config(kFranklin));
    const sim::SimResult r = simulator.run(budget);
    const Clock::time_point end = Clock::now();
    s.cell_ref_s[w][kFranklin].push_back((thread_cpu_s() - cpu_begin) *
                                         to_reference);
    s.model_committed[kFranklin] += r.committed;
    if (ctx.spans != nullptr) {
      ctx.spans->record("core", format("cell %s/franklin",
                                       programs[w].c_str()),
                        begin, end, pass_span);
    }
    check_cell(w, kFranklin, {r.ipc, r.cycles, r.committed, r.stop});
  }

  const Clock::time_point pass_end = Clock::now();
  s.grid_pass_s.push_back(seconds_between(pass_begin, pass_end));
  s.grid_pass_ref_s.push_back((thread_cpu_s() - pass_cpu_begin) *
                              to_reference);
  if (ctx.spans != nullptr) {
    ctx.spans->record("sim.experiment", "fig2 grid", pass_begin, pass_end, 0,
                      pass_span);
  }
}

// --- fault_campaign ----------------------------------------------------------

void run_fault_campaign(const PhaseContext& ctx, double seconds) {
  const Inputs& in = *ctx.inputs;
  Samples& s = *ctx.samples;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point begin = Clock::now();
    const double cpu_begin = process_cpu_s();
    sim::CampaignResult result = sim::run_campaign(in.campaign);
    s.campaign_op_ref_s.push_back((process_cpu_s() - cpu_begin) *
                                  s.to_reference());
    const Clock::time_point end = Clock::now();
    s.campaign_op_s.push_back(seconds_between(begin, end));
    s.campaign_injections += result.total_injections();
    if (ctx.spans != nullptr) {
      ctx.spans->record("sim.campaign", "fault campaign", begin, end);
    }
    ++s.attempted;
    const bool digest_ok =
        ctx.checker->check("campaign json", hex64(fnv1a(result.json())));
    if (!coverage_holds(result, ctx.checker) || !digest_ok) ++s.failed;
    if (!s.have_campaign_result) {
      s.campaign_result = std::move(result);
      s.have_campaign_result = true;
    }
  } while (elapsed_s(start) < seconds);
}

// --- service_mix -------------------------------------------------------------

void run_service_mix(const PhaseContext& ctx, double seconds) {
  const Inputs& in = *ctx.inputs;
  Samples& s = *ctx.samples;
  http::Client& client = *ctx.env->client;

  // Result fetches and scrapes feed the fetch latencies; the traced run keeps
  // per-kind round trips.
  const auto note_request = [&](const char* kind, Clock::time_point begin,
                                Clock::time_point end, u64 parent) {
    const std::string_view k = kind;
    if (k != "submit" && k != "poll") {
      s.fetch_ms.push_back(seconds_between(begin, end) * 1e3);
    }
    if (ctx.spans != nullptr) {
      s.rtt_us[kind].push_back(seconds_between(begin, end) * 1e6);
      // Polls outnumber every other request ~25:1; their round trips are
      // kept as samples but not as spans, which would swamp the trace.
      if (k != "poll") {
        ctx.spans->record("common.http", kind, begin, end, parent);
      }
    }
  };
  // One request on the keep-alive connection.
  const auto send = [&](const char* kind, const char* method,
                        const std::string& path, const std::string& body,
                        u64 parent) {
    const Clock::time_point begin = Clock::now();
    http::Response response = client.request(method, path, body);
    note_request(kind, begin, Clock::now(), parent);
    return response;
  };
  const auto parse = [&](const std::string& body) {
    const Clock::time_point begin = Clock::now();
    auto value = json::parse_json(body);
    if (ctx.spans != nullptr) {
      s.parse_us.push_back(seconds_between(begin, Clock::now()) * 1e6);
    }
    return value;
  };

  // Submit, then poll the result back to back: 202 while the job is queued
  // or running, and the first 200 carries the JSON result (the job's
  // latency ends there); then fetch the CSV. False on any other status or
  // a result that differs from the reference.
  const auto run_job = [&](usize spec_index) {
    const Clock::time_point begin = Clock::now();
    const u64 span = ctx.spans != nullptr ? ctx.spans->reserve() : 0;
    const bool is_campaign = in.job_is_campaign[spec_index];
    const http::Response submitted = send(
        "submit", "POST", is_campaign ? "/v1/campaigns" : "/v1/experiments",
        in.job_bodies[spec_index], span);
    if (submitted.status != 202) {
      ctx.checker->note_failure(format("submit answered %d: %s",
                                       submitted.status,
                                       submitted.body.c_str()));
      return false;
    }
    auto id_doc = parse(submitted.body);
    const json::Value* id =
        id_doc.ok() ? id_doc.value().find("id") : nullptr;
    if (id == nullptr || !id->is_integer) {
      ctx.checker->note_failure("submit reply carries no job id");
      return false;
    }
    const std::string result_path =
        format("/v1/jobs/%llu/result",
               static_cast<unsigned long long>(id->uint_value));
    http::Response json_result;
    for (;;) {
      const Clock::time_point poll_begin = Clock::now();
      json_result = client.request("GET", result_path);
      const Clock::time_point poll_end = Clock::now();
      if (json_result.status != 202) {
        note_request("result_json", poll_begin, poll_end, span);
        break;
      }
      note_request("poll", poll_begin, poll_end, span);
      ++s.polls;
      parse(json_result.body);  // a real caller reads the state it polled
      if (elapsed_s(begin) > 60.0) {
        ctx.checker->note_failure("job did not finish within 60 s");
        return false;
      }
    }
    const Clock::time_point done = Clock::now();
    const http::Response csv_result =
        send("result_csv", "GET", result_path + "?format=csv", "", span);
    if (json_result.status != 200 || csv_result.status != 200) {
      ctx.checker->note_failure(format("result fetch answered %d/%d",
                                       json_result.status, csv_result.status));
      return false;
    }
    s.job_ms.push_back(seconds_between(begin, done) * 1e3);
    if (ctx.spans != nullptr) {
      s.result_bytes.push_back(static_cast<double>(json_result.body.size()));
      ctx.spans->record("sim.service", is_campaign ? "campaign job"
                                                   : "experiment job",
                        begin, done, 0, span);
    }
    return ctx.checker->check(format("service %zu", spec_index),
                              hex64(fnv1a(json_result.body)) + " " +
                                  hex64(fnv1a(csv_result.body)));
  };
  const auto scrape = [&](const char* kind, const char* path) {
    ++s.attempted;
    const http::Response response = send(kind, "GET", path, "", 0);
    if (response.status != 200) {
      ctx.checker->note_failure(format("%s answered %d", path,
                                       response.status));
      ++s.failed;
    }
  };

  const Clock::time_point start = Clock::now();
  usize jobs = 0;
  // At least one full cycle of the spec set, so every body is checked.
  while (jobs < in.job_bodies.size() || elapsed_s(start) < seconds) {
    ++s.attempted;
    if (run_job(jobs % in.job_bodies.size())) {
      ++s.jobs_completed;
    } else {
      ++s.failed;
    }
    if (++jobs % 8 == 0) {
      scrape("stats", "/v1/stats");
      scrape("metrics", "/v1/metrics");
    }
  }
  s.service_s += elapsed_s(start);
}

// --- fleet_campaign ----------------------------------------------------------

void run_fleet_campaign(const PhaseContext& ctx, double seconds) {
  const Inputs& in = *ctx.inputs;
  Samples& s = *ctx.samples;
  const Clock::time_point start = Clock::now();
  do {
    sim::fleet::FleetConfig config = ctx.env->fleet_config;
    core::StringTraceSink timeline;
    if (ctx.spans != nullptr) config.trace_sink = &timeline;
    sim::CampaignResult result;
    std::string error;
    const Clock::time_point begin = Clock::now();
    const double cpu_begin = process_cpu_s();
    const bool ran =
        sim::fleet::run_fleet_campaign(config, in.campaign, &result, &error);
    const double cpu_s = process_cpu_s() - cpu_begin;
    const Clock::time_point end = Clock::now();
    ++s.attempted;
    if (!ran) {
      ctx.checker->note_failure("fleet campaign failed: " + error);
      ++s.failed;
      continue;
    }
    s.fleet_op_s.push_back(seconds_between(begin, end));
    s.fleet_op_ref_s.push_back(cpu_s * s.to_reference());
    s.fleet_injections += result.total_injections();
    bool ok = ctx.checker->check("campaign json", hex64(fnv1a(result.json())));
    if (s.have_campaign_result &&
        !(result.matrix == s.campaign_result.matrix)) {
      ctx.checker->note_failure(
          "fleet matrix differs from the single-node run");
      ok = false;
    }
    if (!coverage_holds(result, ctx.checker) || !ok) ++s.failed;
    if (ctx.spans != nullptr) {
      ctx.spans->record("sim.fleet", "fleet campaign", begin, end);
      for (const auto& [name, ms] : fleet_slices(timeline.str())) {
        if (name.rfind("dispatch ", 0) == 0) s.fleet_dispatch_ms.push_back(ms);
        if (name.rfind("run ", 0) == 0) s.fleet_run_ms.push_back(ms);
        if (name.rfind("merge ", 0) == 0) s.fleet_merge_ms.push_back(ms);
      }
    }
  } while (elapsed_s(start) < seconds);
}

}  // namespace perfbench
