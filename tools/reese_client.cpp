// reese_client: command-line client for reesed (tools/reesed.cpp).
//
// Submit an experiment or campaign spec, poll a job to completion, fetch
// its result — without hand-writing HTTP. Exit status 0 only when the
// server answered the command with a 2xx.
//
// Usage: reese_client [--host ADDR] [--port N] [--token TOK] [--retries N]
//                     [--retry-backoff-ms MS] <command> [args]
//
//   --token TOK             send "Authorization: Bearer TOK" on every
//                           request (daemons started with --auth-token)
//   --retries N             retry transport failures and 429 backpressure
//                           up to N times with exponential backoff +
//                           jitter (default 0: fail fast, exact call
//                           counts for tests)
//   --retry-backoff-ms MS   first retry delay (default 100, doubling up
//                           to 2000)
//
//   health                          GET /v1/healthz
//   stats                           GET /v1/stats
//   submit-experiment SPEC.json     POST /v1/experiments; prints the job id
//   submit-campaign SPEC.json       POST /v1/campaigns; prints the job id
//   status ID                       GET /v1/jobs/ID
//   progress ID                     GET /v1/jobs/ID/progress — live cells
//                                   done/total, committed instructions, kIPS
//   wait ID [--poll-ms N]           poll status until the job leaves
//                                   queued/running; prints the final state
//   result ID [--csv|--cells]       GET /v1/jobs/ID/result (?format=csv or
//                                   ?format=cells — the binary per-cell
//                                   campaign matrix the coordinator merges)
//   metrics                         GET /v1/metrics (Prometheus text)
//   fleet-metrics                   GET /v1/fleet/metrics — the
//                                   coordinator's federated view of every
//                                   worker's metrics, one "worker" label
//                                   per daemon (DESIGN.md §17)
//
// SPEC.json may be "-" to read the spec from stdin. `wait` exits 0 for
// state "done", 3 for "timeout", 4 for "failed". `result` on a job that
// timed out surfaces the server's 408; a job pruned by the daemon's
// retention window surfaces its 410. With --retries, `wait` rides out a
// daemon restart between polls instead of failing on the first refused
// connect.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/http.h"
#include "common/json.h"

using namespace reese;

namespace {

bool read_spec(const std::string& path, std::string* out) {
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    *out = buffer.str();
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "reese_client: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Pull a field out of a service JSON response; empty string when absent.
std::string response_field(const std::string& body, const char* key) {
  Result<json::Value> parsed = json::parse_json(body);
  if (!parsed.ok() || !parsed.value().is_object()) return "";
  const json::Value* value = parsed.value().find(key);
  if (value == nullptr) return "";
  if (value->is_string()) return value->string;
  if (value->is_number() && value->is_integer) {
    return std::to_string(value->uint_value);
  }
  return "";
}

int fail_transport(const http::Response& response) {
  std::fprintf(stderr, "reese_client: %s\n", response.body.c_str());
  return 1;
}

/// Body to stdout, binary-safe (?format=cells is an octet stream).
void print_body(const http::Response& response) {
  std::fwrite(response.body.data(), 1, response.body.size(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 8642;
  std::vector<std::string> tokens;
  int poll_ms = 50;
  bool csv = false;
  bool cells = false;
  http::RequestOptions options;
  FlagParser flags;
  flags.add("--host", &host);
  flags.add("--port", &port);
  flags.add("--token", &tokens);
  flags.add("--retries", &options.max_retries);
  flags.add("--retry-backoff-ms", &options.backoff_ms);
  flags.add("--poll-ms", &poll_ms);
  flags.add("--csv", &csv);
  flags.add("--cells", &cells);
  flags.accept_operands();
  if (!flags.parse_or_report(argc, argv)) return 2;
  const std::vector<std::string>& args = flags.positional();
  if (args.empty() || port < 1 || port > 65535) {
    std::fprintf(stderr,
                 "usage: reese_client [--host ADDR] [--port N] [--token TOK] "
                 "[--retries N] [--retry-backoff-ms MS] "
                 "health|stats|metrics|fleet-metrics|submit-experiment|"
                 "submit-campaign|status|progress|wait|result ...\n");
    return 2;
  }
  for (const std::string& token : tokens) {
    options.headers.push_back({"Authorization", "Bearer " + token});
  }
  options.max_retries = std::max(options.max_retries, 0);
  options.backoff_ms = std::max(options.backoff_ms, 1.0);
  poll_ms = std::max(poll_ms, 1);
  const std::string& command = args[0];
  const u16 port16 = static_cast<u16>(port);

  if (command == "health" || command == "stats" || command == "metrics" ||
      command == "fleet-metrics") {
    const std::string path = command == "health"  ? "/v1/healthz"
                             : command == "stats" ? "/v1/stats"
                             : command == "fleet-metrics"
                                 ? "/v1/fleet/metrics"
                                 : "/v1/metrics";
    const http::Response response =
        http::request(host, port16, "GET", path, "", options);
    if (response.status == 0) return fail_transport(response);
    print_body(response);
    return response.status == 200 ? 0 : 1;
  }

  if (command == "submit-experiment" || command == "submit-campaign") {
    if (args.size() < 2) {
      std::fprintf(stderr, "reese_client: %s needs a spec file (or -)\n",
                   command.c_str());
      return 2;
    }
    std::string spec;
    if (!read_spec(args[1], &spec)) return 1;
    const std::string path = command == "submit-experiment"
                                 ? "/v1/experiments"
                                 : "/v1/campaigns";
    const http::Response response =
        http::request(host, port16, "POST", path, spec, options);
    if (response.status == 0) return fail_transport(response);
    if (response.status != 202) {
      std::fprintf(stderr, "reese_client: submit failed (%d): %s",
                   response.status, response.body.c_str());
      return 1;
    }
    // Print just the id: the natural thing to capture in a shell variable.
    std::printf("%s\n", response_field(response.body, "id").c_str());
    return 0;
  }

  if (command == "status" || command == "progress" || command == "wait" ||
      command == "result") {
    if (args.size() < 2) {
      std::fprintf(stderr, "reese_client: %s needs a job id\n",
                   command.c_str());
      return 2;
    }
    const std::string& id = args[1];

    if (command == "status" || command == "progress") {
      const std::string path = "/v1/jobs/" + id +
                               (command == "progress" ? "/progress" : "");
      const http::Response response =
          http::request(host, port16, "GET", path, "", options);
      if (response.status == 0) return fail_transport(response);
      print_body(response);
      return response.status == 200 ? 0 : 1;
    }

    if (command == "wait") {
      for (;;) {
        const http::Response response =
            http::request(host, port16, "GET", "/v1/jobs/" + id, "", options);
        if (response.status == 0) return fail_transport(response);
        if (response.status != 200) {
          std::fprintf(stderr, "reese_client: status %d: %s",
                       response.status, response.body.c_str());
          return 1;
        }
        const std::string state = response_field(response.body, "state");
        if (state != "queued" && state != "running") {
          std::printf("%s\n", state.c_str());
          if (state == "done") return 0;
          if (state == "timeout") return 3;
          return 4;
        }
        ::usleep(static_cast<useconds_t>(poll_ms) * 1000);
      }
    }

    // result
    std::string path = "/v1/jobs/" + id + "/result";
    if (csv) {
      path += "?format=csv";
    } else if (cells) {
      path += "?format=cells";
    }
    const http::Response response =
        http::request(host, port16, "GET", path, "", options);
    if (response.status == 0) return fail_transport(response);
    if (response.status != 200) {
      std::fprintf(stderr, "reese_client: status %d: %s", response.status,
                   response.body.c_str());
      return 1;
    }
    print_body(response);
    return 0;
  }

  std::fprintf(stderr, "reese_client: unknown command %s\n", command.c_str());
  return 2;
}
