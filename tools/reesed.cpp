// reesed: the long-lived REESE simulation service.
//
// Wraps sim::SimulationService (job queue + run_experiment/run_campaign)
// in the dependency-free HTTP/1.1 server from common/http.h. Clients
// submit JSON experiment/campaign specs, poll job state (including live
// per-cell progress at /v1/jobs/<id>/progress) and fetch results as JSON
// or CSV; /v1/metrics exposes daemon-wide counters in Prometheus text
// format for scraping. See DESIGN.md §11–§12 for endpoints and schemas,
// and tools/reese_client.cpp for a ready-made client.
//
// With --coordinator the daemon stops running campaigns itself and fans
// them across a fleet of plain reesed workers (sim/fleet.h, DESIGN.md
// §15): campaign specs shard along the replica axis, shards dispatch over
// keep-alive HTTP, dead workers' shards re-dispatch to survivors, and the
// merged result is byte-identical to a single-node run. Experiments still
// run locally. Coordinators additionally federate worker metrics behind
// GET /v1/fleet/metrics and can emit a fleet-timeline Chrome trace
// (DESIGN.md §17).
//
// Usage: reesed [--host ADDR] [--port N] [--workers N] [--queue-capacity N]
//               [--grid-jobs N] [--max-instructions N] [--max-cells N]
//               [--timeout-s SECONDS] [--auth-token TOK]...
//               [--tenant-max-active N] [--retain-jobs N]
//               [--log-file PATH] [--log-level LEVEL]
//               [--coordinator] [--worker HOST:PORT]...
//               [--workers-file PATH] [--fleet-token TOK]
//               [--shards-per-worker N] [--fleet-trace-out PATH]
//
//   --host ADDR            bind address (default 127.0.0.1)
//   --port N               TCP port; 0 picks an ephemeral port (default 8642)
//   --workers N            concurrent jobs (default 2)
//   --queue-capacity N     waiting jobs before submits get 429 (default 16)
//   --grid-jobs N          grid workers per job when a spec omits "jobs"
//                          (default 1)
//   --max-instructions N   per-cell budget cap; larger specs are a 400
//   --max-cells N          grid-size cap (workloads × models × seeds); in
//                          coordinator mode the effective cap is this times
//                          the fleet size
//   --timeout-s SECONDS    default per-job wall-clock timeout (default 300)
//   --auth-token TOK       require this bearer token (repeatable; each token
//                          is one tenant). Without the flag the service is
//                          open. /v1/healthz never requires a token.
//   --tenant-max-active N  queued+running jobs one tenant may hold; beyond
//                          it submits get 429 (default 0 = unlimited)
//   --retain-jobs N        finished jobs kept for result fetches; pruning
//                          prefers already-fetched results, and a pruned id
//                          answers 410 Gone (default 256)
//   --log-file PATH        append structured JSON-lines events to PATH
//                          instead of stderr (DESIGN.md §17)
//   --log-level LEVEL      drop events below LEVEL: debug, info, warn or
//                          error (default info)
//   --coordinator          dispatch campaign jobs to the worker fleet
//   --worker HOST:PORT     add a fleet worker (repeatable)
//   --workers-file PATH    read workers, one HOST:PORT per line ('#'
//                          comments and blank lines skipped)
//   --fleet-token TOK      bearer token sent to workers (when they run with
//                          --auth-token)
//   --shards-per-worker N  campaign shards per worker; >1 shrinks the unit
//                          of re-dispatched work after a worker death
//                          (default 2)
//   --fleet-trace-out PATH write each fleet campaign's timeline as Chrome
//                          trace JSON to PATH (coordinator only; validate
//                          with tools/trace_check.py)
//
// Prints exactly one "reesed: listening on HOST:PORT" line once the socket
// is bound (tests parse it to discover the ephemeral port); everything
// else the daemon has to say is a structured log event. SIGTERM and
// SIGINT stop the accept loop, drain the admitted jobs, log final stats
// and exit 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/http.h"
#include "common/log.h"
#include "common/strutil.h"
#include "sim/fleet.h"
#include "sim/service.h"

using namespace reese;

namespace {

http::Server* g_server = nullptr;

// Async-signal-safe: request_stop is an atomic store plus ::shutdown(2).
void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// Config errors are events too: one error-level line, then exit 2.
[[noreturn]] void config_error(const std::string& message) {
  log::global().error("config", message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 8642;
  std::string log_file;
  std::string log_level;
  sim::ServiceConfig config;
  sim::fleet::FleetConfig fleet;
  bool coordinator = false;
  std::vector<std::string> worker_addresses;
  std::vector<std::string> workers_files;

  FlagParser flags;
  flags.add("--host", &host);
  flags.add("--port", &port);
  flags.add("--workers", &config.workers);
  flags.add("--queue-capacity", &config.queue_capacity);
  flags.add("--grid-jobs", &config.grid_jobs);
  flags.add("--max-instructions", &config.max_instructions);
  flags.add("--max-cells", &config.max_cells);
  flags.add("--timeout-s", &config.default_timeout_s);
  flags.add("--auth-token", &config.auth_tokens);
  flags.add("--tenant-max-active", &config.tenant_max_active);
  flags.add("--retain-jobs", &config.max_retained_jobs);
  flags.add("--log-file", &log_file);
  flags.add("--log-level", &log_level);
  flags.add("--coordinator", &coordinator);
  flags.add("--worker", &worker_addresses);
  flags.add("--workers-file", &workers_files);
  flags.add("--fleet-token", &fleet.auth_token);
  flags.add("--shards-per-worker", &fleet.shards_per_worker);
  flags.add("--fleet-trace-out", &fleet.trace_path);
  const Result<bool> parsed = flags.parse(argc, argv);

  // The log sink and level apply before anything is validated, so every
  // config error below lands in the right place whatever the flag order.
  if (!log_file.empty() && !log::global().open_file(log_file)) {
    // open_file leaves the sink on stderr, so this event is visible.
    config_error(format("cannot open log file %s", log_file.c_str()));
  }
  if (!log_level.empty()) {
    log::Level level;
    if (!log::level_from_name(log_level, &level)) {
      config_error(format("--log-level must be debug, info, warn or "
                          "error, got %s",
                          log_level.c_str()));
    }
    log::global().set_level(level);
  }
  if (!parsed.ok()) config_error(parsed.error().message);

  for (const std::string& address : worker_addresses) {
    sim::fleet::Worker worker;
    std::string error;
    if (!sim::fleet::parse_worker_address(address, &worker, &error)) {
      config_error(error);
    }
    fleet.workers.push_back(std::move(worker));
  }
  for (const std::string& path : workers_files) {
    std::string error;
    if (!sim::fleet::load_workers_file(path, &fleet.workers, &error)) {
      config_error(error);
    }
  }
  if (fleet.shards_per_worker < 1) {
    config_error("--shards-per-worker must be >= 1");
  }
  if (port < 0 || port > 65535) {
    config_error(format("--port %d is not in [0, 65535]", port));
  }
  if (coordinator && fleet.workers.empty()) {
    config_error("--coordinator needs at least one --worker (or a "
                 "--workers-file)");
  }
  if (!coordinator && !fleet.workers.empty()) {
    config_error("--worker/--workers-file need --coordinator");
  }
  if (!coordinator && !fleet.trace_path.empty()) {
    config_error("--fleet-trace-out needs --coordinator");
  }

  if (coordinator) {
    // A fleet of N workers really can run N times the cell budget; the
    // per-shard cap on each worker still bounds any single node.
    config.max_cells *= fleet.workers.size();
    config.campaign_runner = [fleet](const sim::CampaignSpec& spec,
                                     sim::CampaignResult* result,
                                     std::string* error) {
      return sim::fleet::run_fleet_campaign(fleet, spec, result, error);
    };
    config.fleet_collector = [fleet](metrics::Registry* registry,
                                     std::string* error) {
      return sim::fleet::collect_fleet_metrics(fleet, registry, error);
    };
    log::global().info(
        "coordinator_start",
        format("coordinating %zu workers", fleet.workers.size()),
        {log::field("workers", static_cast<u64>(fleet.workers.size())),
         log::field("shards_per_worker", fleet.shards_per_worker)});
  }

  sim::SimulationService service(config);
  http::Server server(
      [&service](const http::Request& request) {
        return service.handle(request);
      });
  if (!server.listen(host, static_cast<u16>(port))) return 1;
  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  std::printf("reesed: listening on %s:%u\n", host.c_str(), server.port());
  std::fflush(stdout);

  server.serve();

  // Stop requested: refuse new work, finish what was admitted, report.
  log::global().info("draining", "draining in-flight jobs");
  service.drain();
  const sim::ServiceStats stats = service.stats();
  log::global().info(
      "shutdown",
      format("shut down (submitted %llu, completed %llu, %.1f kIPS)",
             static_cast<unsigned long long>(stats.submitted),
             static_cast<unsigned long long>(stats.completed), stats.kips()),
      {log::field("submitted", stats.submitted),
       log::field("completed", stats.completed),
       log::field("timeouts", stats.timeouts),
       log::field("failed", stats.failed),
       log::field("rejected", stats.rejected_queue_full),
       log::field("kips", stats.kips())});
  return 0;
}
