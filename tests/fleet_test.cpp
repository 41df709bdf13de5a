// Fleet-mode coverage (DESIGN.md §15): campaign sharding and merging,
// the lossless ?format=cells wire form, the coordinator dispatcher
// against real in-process worker daemons (http::Server +
// SimulationService on loopback), worker death and re-dispatch, auth
// rejection, and the HTTP client behaviours the fleet leans on —
// keep-alive connection reuse, wall-clock deadlines against slow
// writers, and bounded retries that ride out 429 backpressure and
// daemon restarts.
//
// The load-bearing assertions are byte comparisons: a sharded campaign
// merged from any number of workers — including after a worker dies
// mid-run — must render json()/csv() identical to a single-node
// run_campaign of the same spec.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/chrome_trace.h"

#include "common/http.h"
#include "common/strutil.h"
#include "sim/campaign.h"
#include "sim/fleet.h"
#include "sim/service.h"

namespace reese {
namespace {

using sim::CampaignResult;
using sim::CampaignSpec;
using sim::CampaignWire;

/// A small campaign that still exercises multiple variants, workloads and
/// replicas. ~tens of milliseconds per cell.
CampaignSpec small_spec() {
  CampaignSpec spec;
  const std::vector<sim::CampaignVariant> standard =
      sim::standard_campaign_variants();
  spec.variants = {standard[3], standard[2]};  // baseline, reese_either
  spec.workloads = {"gcc", "li"};
  spec.replicas = 5;
  spec.instructions = 8000;
  spec.seed = 1234;
  spec.jobs = 1;
  return spec;
}

// ---------------------------------------------------------------------------
// Sharding: pure spec surgery.

TEST(Shard, SplitCoversTheReplicaAxis) {
  CampaignSpec spec = small_spec();
  spec.replicas = 12;
  spec.quick = false;
  const CampaignSpec resolved = sim::resolve_campaign_defaults(spec);
  const std::vector<CampaignSpec> shards =
      sim::split_campaign_spec(resolved, 5);
  ASSERT_EQ(shards.size(), 5u);
  u32 next_begin = 0;
  u32 total = 0;
  for (const CampaignSpec& shard : shards) {
    EXPECT_EQ(shard.replica_begin, next_begin) << "shards must be contiguous";
    EXPECT_GE(shard.replicas, 2u);  // sizes differ by at most one (12/5)
    EXPECT_LE(shard.replicas, 3u);
    EXPECT_FALSE(shard.quick) << "quick would re-clamp replicas on a worker";
    EXPECT_EQ(shard.seed, resolved.seed);
    EXPECT_EQ(shard.instructions, resolved.instructions);
    next_begin += shard.replicas;
    total += shard.replicas;
  }
  EXPECT_EQ(total, 12u);

  // More shards than replicas: empty shards are dropped, one replica each.
  const std::vector<CampaignSpec> thin = sim::split_campaign_spec(
      sim::resolve_campaign_defaults([] {
        CampaignSpec s = small_spec();
        s.replicas = 3;
        return s;
      }()),
      8);
  ASSERT_EQ(thin.size(), 3u);
  for (usize i = 0; i < thin.size(); ++i) {
    EXPECT_EQ(thin[i].replicas, 1u);
    EXPECT_EQ(thin[i].replica_begin, static_cast<u32>(i));
  }
}

TEST(Shard, MergedShardsAreByteIdenticalToSingleNode) {
  const CampaignSpec spec = small_spec();
  const CampaignResult single = sim::run_campaign(spec);

  const CampaignSpec resolved = sim::resolve_campaign_defaults(spec);
  const std::vector<CampaignSpec> shards =
      sim::split_campaign_spec(resolved, 3);
  ASSERT_EQ(shards.size(), 3u);

  // Run every shard as a worker would, but with *different* thread counts
  // per shard: the merged bytes must not depend on worker parallelism.
  sim::CampaignMatrix merged = sim::make_campaign_matrix(resolved);
  for (usize i = 0; i < shards.size(); ++i) {
    CampaignSpec shard = shards[i];
    shard.jobs = static_cast<u32>(i + 1);
    const CampaignResult part = sim::run_campaign(shard);
    // Through the full wire form, exactly like the coordinator.
    const std::string wire_bytes = sim::serialize_campaign_matrix(part);
    CampaignWire wire;
    std::string error;
    ASSERT_TRUE(sim::deserialize_campaign_matrix(wire_bytes, &wire, &error))
        << error;
    ASSERT_TRUE(sim::place_shard(resolved, wire, &merged, &error)) << error;
  }

  CampaignResult assembled;
  assembled.spec = resolved;
  assembled.matrix = merged;
  EXPECT_EQ(assembled.json(), single.json());
  EXPECT_EQ(assembled.csv(), single.csv());
  EXPECT_TRUE(assembled.matrix == single.matrix);
}

TEST(Shard, WireFormRoundTripsLosslessly) {
  CampaignSpec spec = small_spec();
  spec.workloads = {"gcc"};
  spec.replicas = 2;
  const CampaignResult result = sim::run_campaign(spec);
  const std::string bytes = sim::serialize_campaign_matrix(result);

  CampaignWire wire;
  std::string error;
  ASSERT_TRUE(sim::deserialize_campaign_matrix(bytes, &wire, &error)) << error;
  EXPECT_EQ(wire.seed, result.spec.seed);
  EXPECT_EQ(wire.instructions, result.spec.instructions);
  EXPECT_EQ(wire.rate, result.spec.rate);
  EXPECT_EQ(wire.replica_begin, 0u);
  ASSERT_EQ(wire.variant_labels.size(), 2u);
  EXPECT_EQ(wire.variant_labels[0], "baseline");
  EXPECT_EQ(wire.variant_labels[1], "reese_either");
  ASSERT_EQ(wire.workload_names.size(), 1u);
  EXPECT_EQ(wire.workload_names[0], "gcc");
  EXPECT_TRUE(wire.matrix == result.matrix);
}

TEST(Shard, DeserializeRejectsCorruptBuffers) {
  const CampaignResult result = sim::run_campaign([] {
    CampaignSpec s = small_spec();
    s.workloads = {"gcc"};
    s.replicas = 1;
    return s;
  }());
  const std::string good = sim::serialize_campaign_matrix(result);

  CampaignWire wire;
  std::string error;
  EXPECT_FALSE(sim::deserialize_campaign_matrix("not a snapshot", &wire,
                                                &error));
  EXPECT_FALSE(error.empty());

  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x40;  // payload corruption -> checksum fails
  EXPECT_FALSE(sim::deserialize_campaign_matrix(flipped, &wire, &error));

  const std::string truncated = good.substr(0, good.size() - 9);
  EXPECT_FALSE(sim::deserialize_campaign_matrix(truncated, &wire, &error));
}

TEST(Shard, PlaceShardEnforcesTheIdentityContract) {
  const CampaignSpec spec = small_spec();
  const CampaignSpec resolved = sim::resolve_campaign_defaults(spec);
  const std::vector<CampaignSpec> shards =
      sim::split_campaign_spec(resolved, 2);
  ASSERT_EQ(shards.size(), 2u);
  const CampaignResult part = sim::run_campaign(shards[0]);
  const std::string bytes = sim::serialize_campaign_matrix(part);
  CampaignWire wire;
  std::string error;
  ASSERT_TRUE(sim::deserialize_campaign_matrix(bytes, &wire, &error));

  sim::CampaignMatrix merged = sim::make_campaign_matrix(resolved);

  // A shard from a different campaign (wrong seed) must not merge.
  CampaignWire foreign = wire;
  foreign.seed ^= 1;
  EXPECT_FALSE(sim::place_shard(resolved, foreign, &merged, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;

  foreign = wire;
  foreign.variant_labels[0] = "reese_1of2";
  EXPECT_FALSE(sim::place_shard(resolved, foreign, &merged, &error));

  foreign = wire;
  foreign.replica_begin = resolved.replicas;  // range falls off the end
  EXPECT_FALSE(sim::place_shard(resolved, foreign, &merged, &error));
  EXPECT_EQ(error,
            "shard identity: replica range [5, 8) outside campaign [0, 5)");

  // The genuine shard merges once — and only once (double delivery, e.g.
  // a re-dispatched shard whose first worker was wrongly declared dead,
  // must be caught rather than double-counted).
  ASSERT_TRUE(sim::place_shard(resolved, wire, &merged, &error)) << error;
  EXPECT_FALSE(sim::place_shard(resolved, wire, &merged, &error));
  EXPECT_NE(error.find("already"), std::string::npos) << error;
}

TEST(Shard, WireSpecJsonNeverSetsQuick) {
  const CampaignSpec resolved =
      sim::resolve_campaign_defaults(small_spec());
  const std::vector<CampaignSpec> shards =
      sim::split_campaign_spec(resolved, 2);
  const std::string body = sim::fleet::campaign_spec_json(shards[1], 0.0);
  EXPECT_EQ(body.find("quick"), std::string::npos)
      << "a quick wire spec would re-clamp replicas on the worker: " << body;
  EXPECT_NE(body.find("\"replica_begin\": "), std::string::npos) << body;
  EXPECT_EQ(body.find("timeout_s"), std::string::npos) << body;
  const std::string timed = sim::fleet::campaign_spec_json(shards[1], 2.5);
  EXPECT_NE(timed.find("\"timeout_s\": "), std::string::npos) << timed;
}

TEST(Shard, WorkerAddressParsing) {
  sim::fleet::Worker worker;
  std::string error;
  EXPECT_TRUE(sim::fleet::parse_worker_address("127.0.0.1:8642", &worker,
                                               &error));
  EXPECT_EQ(worker.host, "127.0.0.1");
  EXPECT_EQ(worker.port, 8642);
  EXPECT_FALSE(sim::fleet::parse_worker_address("no-port", &worker, &error));
  EXPECT_FALSE(sim::fleet::parse_worker_address("host:0", &worker, &error));
  EXPECT_FALSE(sim::fleet::parse_worker_address("host:99999", &worker,
                                                &error));
  EXPECT_FALSE(sim::fleet::parse_worker_address(":8642", &worker, &error));
}

// ---------------------------------------------------------------------------
// The dispatcher against real in-process workers.

/// One worker daemon: a SimulationService behind an http::Server on an
/// ephemeral loopback port, exactly what `reesed` runs.
struct WorkerDaemon {
  explicit WorkerDaemon(sim::ServiceConfig config = {})
      : service(config),
        server([this](const http::Request& request) {
          return service.handle(request);
        }) {
    EXPECT_TRUE(server.listen("127.0.0.1", 0));
    thread = std::thread([this] { server.serve(); });
  }
  ~WorkerDaemon() { stop(); }

  void stop() {
    if (!thread.joinable()) return;
    server.request_stop();
    // A no-op connect unblocks accept() if ::shutdown alone does not.
    http::RequestOptions nudge;
    nudge.deadline_s = 1.0;
    http::request("127.0.0.1", server.port(), "GET", "/v1/healthz", "",
                  nudge);
    thread.join();
    service.drain();
  }

  sim::fleet::Worker address() const {
    return {"127.0.0.1", server.port()};
  }

  sim::SimulationService service;
  http::Server server;
  std::thread thread;
};

/// Fast-failing fleet config pointed at `daemons`.
sim::fleet::FleetConfig fleet_config(
    const std::vector<WorkerDaemon*>& daemons) {
  sim::fleet::FleetConfig config;
  for (const WorkerDaemon* daemon : daemons) {
    config.workers.push_back(daemon->address());
  }
  config.max_retries = 1;
  config.backoff_ms = 5.0;
  config.backoff_max_ms = 20.0;
  config.poll_interval_ms = 5.0;
  config.probe_deadline_s = 2.0;
  return config;
}

TEST(Fleet, MergedResultIsByteIdenticalForTwoAndThreeWorkers) {
  const CampaignSpec spec = small_spec();
  const CampaignResult single = sim::run_campaign(spec);

  for (const usize worker_count : {2u, 3u}) {
    std::vector<std::unique_ptr<WorkerDaemon>> daemons;
    std::vector<WorkerDaemon*> ptrs;
    for (usize i = 0; i < worker_count; ++i) {
      daemons.push_back(std::make_unique<WorkerDaemon>());
      ptrs.push_back(daemons.back().get());
    }
    CampaignResult result;
    std::string error;
    ASSERT_TRUE(sim::fleet::run_fleet_campaign(fleet_config(ptrs), spec,
                                               &result, &error))
        << error;
    EXPECT_EQ(result.json(), single.json())
        << worker_count << " workers diverged from the single-node run";
    EXPECT_EQ(result.csv(), single.csv());
    EXPECT_FALSE(result.cancelled);
  }
}

TEST(Fleet, ComponentCampaignMergesByteIdenticallyAcrossTwoWorkers) {
  // Component variants travel the wire as "base@site" labels; a sharded
  // run must land on the same bytes as a single node, including the
  // masked/sdc/coverage_loss columns only site mode populates.
  CampaignSpec spec = small_spec();
  spec.variants.clear();
  spec.sites = {core::FaultSite::kRQueue, core::FaultSite::kDCache};
  const CampaignResult single = sim::run_campaign(spec);

  std::vector<std::unique_ptr<WorkerDaemon>> daemons;
  std::vector<WorkerDaemon*> ptrs;
  for (usize i = 0; i < 2; ++i) {
    daemons.push_back(std::make_unique<WorkerDaemon>());
    ptrs.push_back(daemons.back().get());
  }
  CampaignResult result;
  std::string error;
  ASSERT_TRUE(sim::fleet::run_fleet_campaign(fleet_config(ptrs), spec,
                                             &result, &error))
      << error;
  EXPECT_EQ(result.json(), single.json());
  EXPECT_EQ(result.csv(), single.csv());
  const sim::CampaignCell rqueue = result.variant_total(0);
  EXPECT_GT(rqueue.injected, 0u);
  EXPECT_EQ(rqueue.masked + rqueue.detected + rqueue.sdc, rqueue.injected);
}

TEST(Fleet, ShardCompletionsReachTheProgressCallback) {
  WorkerDaemon worker;
  CampaignSpec spec = small_spec();
  std::atomic<u64> last_done{0};
  std::atomic<u64> total_seen{0};
  spec.progress = [&](const sim::ProgressUpdate& update) {
    // Merge as monotonic maxima (the progress.h threading contract).
    u64 seen = last_done.load();
    while (update.cells_done > seen &&
           !last_done.compare_exchange_weak(seen, update.cells_done)) {
    }
    total_seen.store(update.cells_total);
  };
  CampaignResult result;
  std::string error;
  ASSERT_TRUE(sim::fleet::run_fleet_campaign(fleet_config({&worker}), spec,
                                             &result, &error))
      << error;
  // 2 variants x 2 workloads x 5 replicas.
  EXPECT_EQ(total_seen.load(), 20u);
  EXPECT_EQ(last_done.load(), 20u);
}

TEST(Fleet, SurvivesAWorkerDeathMidCampaignByteIdentically) {
  CampaignSpec spec = small_spec();
  spec.replicas = 8;
  spec.instructions = 60000;  // long enough to kill a worker mid-run
  const CampaignResult single = sim::run_campaign(spec);

  WorkerDaemon victim;
  WorkerDaemon survivor;
  sim::fleet::FleetConfig config = fleet_config({&victim, &survivor});
  config.shards_per_worker = 2;  // 4 shards: death costs one shard, not all

  CampaignResult result;
  std::string error;
  bool ok = false;
  std::thread campaign([&] {
    ok = sim::fleet::run_fleet_campaign(config, spec, &result, &error);
  });

  // Stop the victim once it has really accepted fleet work, so its
  // in-flight shard must be re-dispatched to the survivor.
  for (int i = 0; i < 4000 && victim.service.stats().submitted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(victim.service.stats().submitted, 0u);
  victim.stop();

  campaign.join();
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(result.json(), single.json())
      << "re-dispatched shards diverged from the single-node run";
  EXPECT_EQ(result.csv(), single.csv());
  // The survivor picked up work beyond its own initial shards.
  EXPECT_GT(survivor.service.stats().submitted, 2u);
}

TEST(Fleet, FailsWhenEveryWorkerIsDead) {
  sim::fleet::FleetConfig config;
  // A port from the ephemeral range with nothing listening: grab one with
  // a bound-then-closed socket.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const u16 dead_port = ntohs(addr.sin_port);
  ::close(probe);

  config.workers = {{"127.0.0.1", dead_port}};
  config.max_retries = 0;
  config.backoff_ms = 1.0;
  config.probe_deadline_s = 1.0;
  CampaignResult result;
  std::string error;
  EXPECT_FALSE(sim::fleet::run_fleet_campaign(config, small_spec(), &result,
                                              &error));
  EXPECT_NE(error.find("worker"), std::string::npos) << error;
}

TEST(Fleet, BadTokenIsADeterministicRejectionNotARetry) {
  sim::ServiceConfig locked;
  locked.auth_tokens = {"right-token"};
  WorkerDaemon worker(locked);

  sim::fleet::FleetConfig config = fleet_config({&worker});
  config.auth_token = "wrong-token";
  CampaignResult result;
  std::string error;
  EXPECT_FALSE(sim::fleet::run_fleet_campaign(config, small_spec(), &result,
                                              &error));
  EXPECT_NE(error.find("401"), std::string::npos) << error;

  // Same fleet, right token: the campaign goes through.
  config.auth_token = "right-token";
  CampaignSpec spec = small_spec();
  spec.workloads = {"gcc"};
  spec.replicas = 2;
  ASSERT_TRUE(sim::fleet::run_fleet_campaign(config, spec, &result, &error))
      << error;
  EXPECT_EQ(result.json(), sim::run_campaign(spec).json());
}

TEST(Fleet, RejectsSpecsThatCannotTravelTheWire) {
  WorkerDaemon worker;
  CampaignSpec spec = small_spec();
  sim::CampaignProgram program;
  program.name = "inline";
  spec.programs.push_back(program);
  CampaignResult result;
  std::string error;
  EXPECT_FALSE(sim::fleet::run_fleet_campaign(fleet_config({&worker}), spec,
                                              &result, &error));
  EXPECT_NE(error.find("program"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Observability (DESIGN.md §17): probe resilience, trace propagation,
// metrics federation and the per-shard progress rollup.

/// An ephemeral loopback port with nothing listening: bind, read back the
/// assigned port, close.
u16 closed_loopback_port() {
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const u16 port = ntohs(addr.sin_port);
  ::close(probe);
  return port;
}

usize count_substrings(const std::string& haystack, const std::string& needle) {
  usize count = 0;
  for (usize at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(Fleet, ProbeRidesOutTransientRefusalsBeforeDeclaringDeath) {
  // Regression: the transport layer only retries refused connects and
  // 429s, so a worker answering 503 (draining, backlog hiccup) used to be
  // declared dead on its first word. The probe must retry any non-200.
  std::atomic<int> calls{0};
  std::atomic<bool> healing{true};
  http::Server server([&](const http::Request&) {
    http::Response response;
    response.status = healing.load() && ++calls > 2 ? 200 : 503;
    response.body = response.status == 200 ? "ok" : "draining";
    return response;
  });
  ASSERT_TRUE(server.listen("127.0.0.1", 0));
  std::thread serve_thread([&server] { server.serve(); });

  sim::fleet::FleetConfig config;
  config.max_retries = 2;
  config.backoff_ms = 1.0;
  config.backoff_max_ms = 4.0;
  config.probe_deadline_s = 2.0;
  const sim::fleet::Worker worker{"127.0.0.1", server.port()};

  // Two 503s, then the worker recovers: alive on the third attempt.
  int attempts = 0;
  EXPECT_TRUE(sim::fleet::probe_worker(worker, config, &attempts));
  EXPECT_EQ(attempts, 3);

  // A worker that keeps refusing exhausts the whole budget before the
  // death verdict.
  healing.store(false);
  attempts = 0;
  EXPECT_FALSE(sim::fleet::probe_worker(worker, config, &attempts));
  EXPECT_EQ(attempts, config.max_retries + 1);

  server.request_stop();
  http::request("127.0.0.1", server.port(), "GET", "/wake");
  serve_thread.join();
}

TEST(Fleet, TraceContextReachesEveryWorkerRequestAndTheTimeline) {
  // A worker daemon wrapped so every X-Reese-Trace header is captured.
  sim::SimulationService service{sim::ServiceConfig{}};
  std::mutex seen_mutex;
  std::vector<std::string> seen;
  http::Server server([&](const http::Request& request) {
    const auto it = request.headers.find(http::kTraceHeaderKey);
    if (it != request.headers.end()) {
      std::lock_guard<std::mutex> lock(seen_mutex);
      seen.push_back(it->second);
    }
    return service.handle(request);
  });
  ASSERT_TRUE(server.listen("127.0.0.1", 0));
  std::thread serve_thread([&server] { server.serve(); });

  sim::fleet::FleetConfig config;
  config.workers = {{"127.0.0.1", server.port()}};
  config.max_retries = 1;
  config.backoff_ms = 5.0;
  config.backoff_max_ms = 20.0;
  config.poll_interval_ms = 5.0;
  config.probe_deadline_s = 2.0;
  core::StringTraceSink sink;
  config.trace_sink = &sink;

  CampaignResult result;
  std::string error;
  ASSERT_TRUE(sim::fleet::run_fleet_campaign(config, small_spec(), &result,
                                             &error))
      << error;

  server.request_stop();
  http::request("127.0.0.1", server.port(), "GET", "/wake");
  serve_thread.join();
  service.drain();

  // Every worker request carried the campaign's single trace id, and each
  // shard attempt travelled under its own span.
  ASSERT_FALSE(seen.empty());
  std::set<std::string> trace_ids;
  std::set<std::string> spans;
  for (const std::string& value : seen) {
    http::TraceContext context;
    ASSERT_TRUE(http::TraceContext::parse(value, &context)) << value;
    trace_ids.insert(value.substr(0, 16));
    spans.insert(value.substr(17));
  }
  EXPECT_EQ(trace_ids.size(), 1u) << "one campaign = one trace id";
  EXPECT_GE(spans.size(), 2u) << "each shard attempt mints a fresh span";

  // The timeline names the fleet process and carries the full slice
  // anatomy with balanced flow arrows.
  const std::string trace = sink.str();
  EXPECT_NE(trace.find("reese-fleet"), std::string::npos);
  EXPECT_NE(trace.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(trace.find("dispatch r["), std::string::npos);
  EXPECT_NE(trace.find("run r["), std::string::npos);
  EXPECT_NE(trace.find("merge r["), std::string::npos);
  EXPECT_NE(trace.find("dispatch-to-merge"), std::string::npos);
  EXPECT_EQ(count_substrings(trace, "\"ph\":\"s\""),
            count_substrings(trace, "\"ph\":\"f\""))
      << "every flow start needs a finish";
}

TEST(Fleet, FederatedMetricsAreDeterministicAndReportDeadWorkers) {
  WorkerDaemon alpha;
  WorkerDaemon beta;
  const u16 dead_port = closed_loopback_port();

  sim::fleet::FleetConfig config;
  config.workers = {alpha.address(), beta.address(),
                    {"127.0.0.1", dead_port}};
  config.request_deadline_s = 2.0;

  metrics::Registry first;
  metrics::Registry second;
  std::string error;
  ASSERT_TRUE(sim::fleet::collect_fleet_metrics(config, &first, &error))
      << error;
  ASSERT_TRUE(sim::fleet::collect_fleet_metrics(config, &second, &error))
      << error;
  const std::string text = first.prometheus();
  EXPECT_EQ(text, second.prometheus())
      << "idle fleet scrapes must be byte-identical";

  // Liveness gauges: reachable workers up, the dead one down — and the
  // dead worker is a gauge, not a federation error.
  EXPECT_NE(text.find(format("reese_fleet_worker_up{worker=\"127.0.0.1:%u\"}"
                             " 1",
                             alpha.address().port)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(format("reese_fleet_worker_up{worker=\"127.0.0.1:%u\"}"
                             " 0",
                             dead_port)),
            std::string::npos)
      << text;

  // Every live worker's series survive under its own worker label.
  EXPECT_NE(text.find(format("worker=\"127.0.0.1:%u\"",
                             beta.address().port)),
            std::string::npos);

  // Two live workers federate a subset of what three would: the merged
  // export only grows with the fleet.
  sim::fleet::FleetConfig smaller = config;
  smaller.workers = {alpha.address(), beta.address()};
  metrics::Registry pair;
  ASSERT_TRUE(sim::fleet::collect_fleet_metrics(smaller, &pair, &error))
      << error;
  EXPECT_LT(pair.prometheus().size(), text.size());
  EXPECT_EQ(pair.size() + 1, first.size())
      << "the third worker only adds its up gauge while idle";
}

TEST(Fleet, ShardProgressRollupIsMonotonicAcrossRedispatch) {
  // A campaign runner that replays a worker death: the shard reports 5
  // cells done, is re-dispatched (fresh attempt restarts at zero), then
  // finishes elsewhere. The service's rollup must never move backwards.
  std::promise<void> regressed;
  std::promise<void> resume;
  sim::ServiceConfig config;
  config.workers = 1;
  config.campaign_runner = [&](const CampaignSpec& spec,
                               CampaignResult* result, std::string* error) {
    (void)error;
    sim::ShardProgressUpdate update;
    update.shard_index = 0;
    update.replica_begin = 0;
    update.replicas = 5;
    update.cells_total = 10;
    update.state = "dispatched";
    update.worker = "a:1";
    update.dispatches = 1;
    spec.shard_progress(update);
    update.state = "running";
    update.cells_done = 5;
    update.committed = 500;
    update.kips = 12.5;
    spec.shard_progress(update);
    // The worker dies; the re-dispatch announcement carries zeros.
    update.state = "re-dispatched";
    update.worker.clear();
    update.cells_done = 0;
    update.committed = 0;
    update.kips = 0.0;
    update.dispatches = 2;
    spec.shard_progress(update);
    regressed.set_value();
    resume.get_future().wait();
    update.state = "running";
    update.worker = "b:2";
    update.cells_done = 3;
    spec.shard_progress(update);
    update.state = "merged";
    update.cells_done = 10;
    update.committed = 1200;
    spec.shard_progress(update);
    *result = run_campaign(spec);
    return true;
  };
  sim::SimulationService service(config);

  http::Request submit;
  submit.method = "POST";
  submit.path = "/v1/campaigns";
  submit.body = R"({"variants": ["baseline"], "workloads": ["gcc"],)"
                R"( "replicas": 2, "instructions": 2000, "seed": 7,)"
                R"( "jobs": 1})";
  ASSERT_EQ(service.handle(submit).status, 202);

  http::Request progress;
  progress.method = "GET";
  progress.path = "/v1/jobs/1/progress";

  // Mid-regression snapshot: the re-dispatch is visible, the counters are
  // not — cells_done holds at the pre-death maximum.
  regressed.get_future().wait();
  std::string body = service.handle(progress).body;
  EXPECT_NE(body.find("\"state\": \"re-dispatched\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"cells_done\": 5"), std::string::npos) << body;
  EXPECT_NE(body.find("\"dispatches\": 2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"worker\": \"a:1\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"kips\": 12.500"), std::string::npos) << body;

  resume.set_value();
  service.drain();

  body = service.handle(progress).body;
  EXPECT_NE(body.find("\"state\": \"merged\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"cells_done\": 10"), std::string::npos) << body;
  EXPECT_NE(body.find("\"worker\": \"b:2\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"dispatches\": 2"), std::string::npos) << body;
}

TEST(Fleet, WorkerEchoesAnInheritedTraceOnStatusAndProgress) {
  sim::SimulationService service{sim::ServiceConfig{}};
  const std::string context = "00000000deadbeef-0000000000000001";

  http::Request submit;
  submit.method = "POST";
  submit.path = "/v1/campaigns";
  submit.headers[http::kTraceHeaderKey] = context;
  submit.body = R"({"variants": ["baseline"], "workloads": ["gcc"],)"
                R"( "replicas": 1, "instructions": 2000, "jobs": 1})";
  const http::Response accepted = service.handle(submit);
  ASSERT_EQ(accepted.status, 202);
  EXPECT_NE(accepted.body.find("\"trace\": \"" + context + "\""),
            std::string::npos)
      << accepted.body;

  service.drain();
  for (const char* path : {"/v1/jobs/1", "/v1/jobs/1/progress"}) {
    http::Request get;
    get.method = "GET";
    get.path = path;
    const http::Response response = service.handle(get);
    ASSERT_EQ(response.status, 200) << path;
    EXPECT_NE(response.body.find("\"trace\": \"" + context + "\""),
              std::string::npos)
        << path << ": " << response.body;
  }

  // No header, no trace field: the echo is strictly inherited.
  http::Request bare = submit;
  bare.headers.clear();
  const http::Response second = service.handle(bare);
  ASSERT_EQ(second.status, 202);
  EXPECT_EQ(second.body.find("\"trace\""), std::string::npos) << second.body;
}

// ---------------------------------------------------------------------------
// HTTP client behaviours the fleet depends on.

TEST(HttpClient, KeepAliveReusesOneConnection) {
  std::atomic<int> handled{0};
  http::Server server([&](const http::Request& request) {
    ++handled;
    http::Response response;
    response.status = 200;
    response.body = request.path;
    return response;
  });
  ASSERT_TRUE(server.listen("127.0.0.1", 0));
  std::thread serve_thread([&server] { server.serve(); });

  {
    http::Client client("127.0.0.1", server.port());
    for (int i = 0; i < 10; ++i) {
      const http::Response response =
          client.request("GET", format("/ping/%d", i));
      ASSERT_EQ(response.status, 200);
      EXPECT_EQ(response.body, format("/ping/%d", i));
    }
    EXPECT_EQ(client.requests_sent(), 10u);
    EXPECT_EQ(client.connects(), 1u)
        << "keep-alive must reuse one TCP connection";
  }
  EXPECT_EQ(handled.load(), 10);
  EXPECT_EQ(server.connections_accepted(), 1u);

  server.request_stop();
  http::request("127.0.0.1", server.port(), "GET", "/wake");
  serve_thread.join();
}

TEST(HttpClient, DeadlineCoversASlowWriterNotJustTheFirstByte) {
  // A raw server that answers promptly but trickles the body forever:
  // a per-recv timeout never fires, only a total-request deadline does.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const u16 port = ntohs(addr.sin_port);

  std::atomic<bool> done{false};
  std::thread trickler([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    char scratch[1024];
    (void)::recv(fd, scratch, sizeof(scratch), 0);
    const char head[] =
        "HTTP/1.1 200 OK\r\nContent-Length: 1000000\r\n\r\n";
    (void)::send(fd, head, sizeof(head) - 1, MSG_NOSIGNAL);
    // One byte every 50ms: each recv succeeds, the response never ends.
    while (!done.load()) {
      if (::send(fd, "x", 1, MSG_NOSIGNAL) <= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::close(fd);
  });

  http::RequestOptions options;
  options.deadline_s = 0.5;
  const auto start = std::chrono::steady_clock::now();
  const http::Response response =
      http::request("127.0.0.1", port, "GET", "/slow", "", options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(response.status, 0) << response.body;
  EXPECT_LT(elapsed, 5.0) << "deadline did not bound the slow writer";
  EXPECT_GE(elapsed, 0.4);

  done.store(true);
  ::close(listen_fd);
  trickler.join();
}

TEST(HttpClient, RetriesRideOut429Backpressure) {
  std::atomic<int> calls{0};
  http::Server server([&](const http::Request&) {
    http::Response response;
    response.status = ++calls <= 2 ? 429 : 200;
    response.body = response.status == 200 ? "ok" : "busy";
    return response;
  });
  ASSERT_TRUE(server.listen("127.0.0.1", 0));
  std::thread serve_thread([&server] { server.serve(); });

  // Without retries: the 429 surfaces, exactly one call.
  http::Response response =
      http::request("127.0.0.1", server.port(), "GET", "/job");
  EXPECT_EQ(response.status, 429);
  EXPECT_EQ(calls.load(), 1);

  // With retries: two 429s absorbed, the third call lands.
  http::RequestOptions options;
  options.max_retries = 4;
  options.backoff_ms = 1.0;
  options.backoff_max_ms = 4.0;
  calls = 0;
  response = http::request("127.0.0.1", server.port(), "GET", "/job", "",
                           options);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok");
  EXPECT_EQ(calls.load(), 3);

  server.request_stop();
  http::request("127.0.0.1", server.port(), "GET", "/wake");
  serve_thread.join();
}

TEST(HttpClient, RetriesRideOutAServerRestartOnTheSamePort) {
  sim::SimulationService service;
  auto handler = [&service](const http::Request& request) {
    return service.handle(request);
  };
  u16 port = 0;
  {
    // First incarnation binds an ephemeral port, then dies.
    http::Server first(handler);
    ASSERT_TRUE(first.listen("127.0.0.1", 0));
    port = first.port();
    std::thread serve_thread([&first] { first.serve(); });
    first.request_stop();
    http::request("127.0.0.1", port, "GET", "/v1/healthz");
    serve_thread.join();
  }

  // The daemon comes back on the same port after ~200ms, as a restarted
  // reesed would. A retrying client issued during the outage must land.
  http::Server second(handler);
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_TRUE(second.listen("127.0.0.1", port));
    second.serve();
  });

  http::RequestOptions options;
  options.max_retries = 10;
  options.backoff_ms = 50.0;
  options.backoff_max_ms = 200.0;
  const http::Response response =
      http::request("127.0.0.1", port, "GET", "/v1/healthz", "", options);
  EXPECT_EQ(response.status, 200)
      << "retries should have bridged the restart: " << response.body;

  second.request_stop();
  http::request("127.0.0.1", port, "GET", "/v1/healthz");
  restarter.join();
}

}  // namespace
}  // namespace reese
