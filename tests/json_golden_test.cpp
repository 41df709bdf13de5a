// Byte pins of every JSON document the simulator library writes: campaign
// and experiment results, lint diagnostics, the static vulnerability report,
// the fleet shard spec, the Chrome trace, one structured log line and the
// service's status, submit, progress, stats and error bodies. Each test
// hashes the exact bytes with FNV-1a (as workloads_test pins program
// images) and compares against a recorded digest; a failure prints the
// new digest row. Wall-clock numbers in service bodies are replaced by a
// fixed token before hashing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "analysis/vuln.h"
#include "common/diag.h"
#include "common/http.h"
#include "common/log.h"
#include "common/snapshot.h"
#include "common/strutil.h"
#include "core/chrome_trace.h"
#include "core/pipeline.h"
#include "isa/assembler.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/service.h"

namespace reese {
namespace {

u64 digest(const std::string& bytes) {
  return snapshot_fnv1a(reinterpret_cast<const u8*>(bytes.data()),
                        bytes.size());
}

/// EXPECT that `bytes` hashes to `golden`; on mismatch print the bytes and
/// the digest row to paste.
void expect_digest(const char* name, const std::string& bytes, u64 golden) {
  const u64 actual = digest(bytes);
  EXPECT_EQ(actual, golden)
      << name << " hashes as "
      << format("0x%016llxULL", static_cast<unsigned long long>(actual))
      << "\n--- bytes ---\n" << bytes;
}

/// Replace the number after every `"...wall_seconds": `, `"elapsed_s": `
/// and `"...kips": ` with "#": those are wall-clock measurements.
std::string mask_timings(std::string body) {
  for (const char* key : {"wall_seconds\": ", "elapsed_s\": ", "kips\": "}) {
    const std::string needle = key;
    for (usize at = body.find(needle); at != std::string::npos;
         at = body.find(needle, at + 1)) {
      const usize begin = at + needle.size();
      usize end = begin;
      while (end < body.size() &&
             std::string_view("0123456789.eE+-").find(body[end]) !=
                 std::string_view::npos) {
        ++end;
      }
      body.replace(begin, end - begin, "#");
    }
  }
  return body;
}

isa::Program assemble(const char* source) {
  auto assembled = isa::assemble(source);
  EXPECT_TRUE(assembled.ok());
  return std::move(assembled).value();
}

sim::CampaignSpec golden_campaign_spec() {
  sim::CampaignSpec spec;
  const std::vector<sim::CampaignVariant> standard =
      sim::standard_campaign_variants();
  sim::CampaignVariant rqueue;
  EXPECT_TRUE(sim::campaign_variant_by_label("reese@rqueue", &rqueue));
  // baseline, reese_either and one component-site variant.
  spec.variants = {standard[3], standard[2], rqueue};
  spec.workloads = {"gcc", "li"};
  spec.replicas = 2;
  spec.instructions = 6000;
  spec.rate = 0.01;
  spec.seed = 77;
  spec.jobs = 1;
  return spec;
}

TEST(JsonGolden, CampaignResult) {
  const sim::CampaignResult result = sim::run_campaign(golden_campaign_spec());
  const std::string json = result.json();
  // The pin is only meaningful if by_class holds several rows.
  EXPECT_NE(json.find("\n        ,{\"class\""), std::string::npos) << json;
  expect_digest("campaign", json, 0x739628fe69fa76e8ULL);
}

sim::ExperimentSpec golden_experiment_spec() {
  sim::ExperimentSpec spec;
  spec.title = "Golden \"grid\"\\\tpin";
  spec.base = core::starting_config();
  spec.models = {sim::Model::kBaseline, sim::Model::kReese,
                 sim::Model::kReese2Alu};
  spec.workloads = {"li", "gcc"};
  spec.instructions = 3000;
  spec.seed = 5;
  spec.jobs = 1;
  return spec;
}

TEST(JsonGolden, ExperimentResult) {
  sim::ExperimentSpec spec = golden_experiment_spec();
  expect_digest("experiment", sim::run_experiment(spec).json(),
                0x1c6dd2f298b91fd9ULL);
  spec.extra_seeds = {11, 12};
  expect_digest("experiment seeds", sim::run_experiment(spec).json(),
                0x25cbeddae0e27234ULL);
}

TEST(JsonGolden, Diagnostics) {
  expect_digest("diag empty",
                render_diagnostics({}, DiagFormat::kJson, "empty.srv"),
                0x66cf876b6d9a49e3ULL);
  const std::vector<Diagnostic> diags = {
      {Severity::kError, 0x40, "branch-target",
       "target \"loop\" is\toutside"},
      {Severity::kNote, 0, "unreachable", "back\\slash\n"},
  };
  expect_digest("diag two",
                render_diagnostics(diags, DiagFormat::kJson, "dir/a \"b\".srv"),
                0x1682a2fb193982f1ULL);
}

TEST(JsonGolden, VulnReport) {
  const isa::Program program = assemble(R"(
main:
  li   t0, 12
  li   t1, 0
loop:
  add  t1, t1, t0
  andi t2, t1, 255
  addi t0, t0, -1
  bnez t0, loop
  out  t2
  halt
)");
  expect_digest("vuln",
                analysis::analyze_vulnerability(program).json("loop.srv"),
                0x14c356c62b16f2eeULL);
  // The one pinned byte change of the Writer port: an empty block list is
  // "[]", where the hand-built emitter wrote "[\n  ]".
  expect_digest("vuln empty",
                analysis::analyze_vulnerability(isa::Program{}).json("none"),
                0xc24968450a12fe0eULL);
}

TEST(JsonGolden, CampaignSpecForShards) {
  sim::CampaignSpec spec = golden_campaign_spec();
  spec.replica_begin = 4;
  expect_digest("shard spec", sim::fleet::campaign_spec_json(spec, 0.0),
                0xf22a5353bd693901ULL);
  expect_digest("shard spec timeout",
                sim::fleet::campaign_spec_json(spec, 12.5),
                0x825c83e4850f8728ULL);
}

TEST(JsonGolden, ChromeTrace) {
  const isa::Program program = assemble(R"(
main:
  li   t0, 12
loop:
  addi t0, t0, -1
  bnez t0, loop
  out  t0
  halt
)");
  core::CoreConfig config = core::with_reese(core::starting_config());
  config.predictor = branch::PredictorKind::kTaken;  // squashes
  core::StringTraceSink sink;
  {
    core::Pipeline pipeline(program, config);
    core::ChromeTraceTracer tracer(&sink);
    pipeline.set_tracer(&tracer);
    EXPECT_EQ(pipeline.run(1'000, 100'000), core::StopReason::kHalted);
    tracer.finish();
  }
  EXPECT_NE(sink.str().find("\"cat\":\"r-stream\""), std::string::npos);
  EXPECT_NE(sink.str().find("\"name\":\"squash\""), std::string::npos);
  expect_digest("chrome trace", sink.str(), 0xfdafa66784494321ULL);
}

TEST(JsonGolden, LogLine) {
  log::Logger logger;
  std::string capture;
  logger.set_clock([] { return 1700000000.125; });
  logger.set_capture(&capture);
  const std::string text = "std\"string";
  logger.warn("golden_event", "a \"quoted\"\tmessage",
              {log::field("view", std::string_view("sv\\")),
               log::field("cstr", "c\nstr"), log::field("str", text),
               log::field("u64", u64{18446744073709551615ULL}),
               log::field("u32", u32{7}),
               log::field("i64", i64{-9223372036854775807LL - 1}),
               log::field("int", -3), log::field("double", 2.5),
               log::field("nan", std::nan("")), log::field("bool", true)});
  expect_digest("log line", capture, 0x7a4c5e6781f6401bULL);
}

http::Request request(const std::string& method, const std::string& path,
                      const std::string& body = "") {
  http::Request r;
  r.method = method;
  r.path = path;
  r.body = body;
  return r;
}

TEST(JsonGolden, ServiceBodies) {
  log::Logger logger;
  std::string log_capture;
  logger.set_capture(&log_capture);
  std::atomic<bool> release{false};
  sim::ServiceConfig config;
  config.workers = 1;
  config.logger = &logger;
  // Job 1 holds the only worker until released, so job 2's submit body is
  // deterministically "queued"; a gcc campaign fails with a quoted error.
  config.campaign_runner = [&release](const sim::CampaignSpec& spec,
                                      sim::CampaignResult* result,
                                      std::string* error) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (spec.workloads.front() == "gcc") {
      *error = "runner refused \"gcc\"\tshard";
      return false;
    }
    *result = sim::run_campaign(spec);
    return true;
  };
  sim::SimulationService service(config);

  const http::Response first = service.handle(request(
      "POST", "/v1/campaigns",
      R"({"workloads": ["li"], "variants": ["reese_either"], "replicas": 1,
          "instructions": 2000})"));
  EXPECT_EQ(first.status, 202);
  http::Request traced = request(
      "POST", "/v1/experiments",
      R"({"workloads": ["li"], "models": ["baseline", "reese"],
          "instructions": 2000, "timeout_s": 30.5})");
  traced.headers[http::kTraceHeaderKey] =
      "00000000000000ab-00000000000000cd";
  const http::Response second = service.handle(traced);
  EXPECT_EQ(second.status, 202);
  expect_digest("submit", second.body, 0x61e12a81fc5e9173ULL);
  const http::Response third = service.handle(request(
      "POST", "/v1/campaigns",
      R"({"workloads": ["gcc"], "variants": ["baseline"], "replicas": 1,
          "instructions": 2000})"));
  EXPECT_EQ(third.status, 202);

  const http::Response error = service.handle(request(
      "POST", "/v1/experiments", R"({"workloads": ["no \"such\"\\one"]})"));
  EXPECT_EQ(error.status, 400);
  expect_digest("error", error.body, 0x0a6b4f06161f5fa8ULL);

  release = true;
  service.drain();
  expect_digest("status campaign",
                mask_timings(service.handle(request("GET", "/v1/jobs/1")).body),
                0xada1405746a61849ULL);
  expect_digest("status experiment",
                mask_timings(service.handle(request("GET", "/v1/jobs/2")).body),
                0x965a38f60428d77aULL);
  expect_digest("status failed",
                mask_timings(service.handle(request("GET", "/v1/jobs/3")).body),
                0x03e7e065413a8036ULL);
  expect_digest(
      "progress",
      mask_timings(
          service.handle(request("GET", "/v1/jobs/2/progress")).body),
      0x18d4d38cc1053f17ULL);
  expect_digest("stats",
                mask_timings(service.handle(request("GET", "/v1/stats")).body),
                0x6fc2a41838efa37aULL);
}

}  // namespace
}  // namespace reese
