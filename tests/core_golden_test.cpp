// Byte pins of the core's observable output for every redundancy scheme and
// the REESE knobs the figure grids leave at their defaults: the stats
// report, the snapshot bytes taken at a drain barrier, the injector's
// tallies under a result-flip or component-site hook, and Franklin's trace
// documents. Each case hashes the exact bytes with FNV-1a (as
// json_golden_test pins JSON documents) and compares against a recorded
// digest; a failure prints the new digest row and the report.
#include <gtest/gtest.h>

#include <string>

#include "common/snapshot.h"
#include "common/strutil.h"
#include "core/chrome_trace.h"
#include "core/pipeline.h"
#include "faults/injector.h"
#include "workloads/workload.h"

namespace reese {
namespace {

constexpr u64 kInstructions = 12'000;
constexpr Cycle kCycleLimit = 4'000'000;

u64 digest(const std::string& bytes) {
  return snapshot_fnv1a(reinterpret_cast<const u8*>(bytes.data()),
                        bytes.size());
}

void expect_digest(const char* name, const std::string& bytes, u64 golden) {
  const u64 actual = digest(bytes);
  EXPECT_EQ(actual, golden)
      << name << " hashes as "
      << format("0x%016llxULL", static_cast<unsigned long long>(actual))
      << "\n--- bytes (snapshot shown as its digest) ---\n" << bytes;
}

workloads::Workload load(const std::string& name) {
  auto made = workloads::make_workload(name, {});
  EXPECT_TRUE(made.ok());
  return std::move(made).value();
}

core::CoreConfig reese_config() {
  return core::with_reese(core::starting_config());
}

core::CoreConfig franklin_config() {
  core::CoreConfig config = reese_config();
  config.reese.scheme = core::RedundancyScheme::kFranklin;
  return config;
}

/// Run `workload` under `config` (and `hook`), drain to a barrier and
/// render what the run leaves behind: the stop reason, the stats report
/// and the digest of the snapshot bytes. A restored copy continues the run
/// and must report exactly what the original does after the same stretch.
std::string pinned_run(const std::string& workload_name,
                       const core::CoreConfig& config,
                       core::FaultHook* hook = nullptr) {
  const workloads::Workload workload = load(workload_name);
  core::Pipeline pipeline(workload.program, config);
  pipeline.set_fault_hook(hook);
  const core::StopReason stop = pipeline.run(kInstructions, kCycleLimit);
  EXPECT_TRUE(pipeline.drain_to_barrier());
  SnapshotWriter writer;
  pipeline.save_state(&writer);

  std::string out = format("stop %s\n", core::stop_reason_name(stop));
  out += pipeline.report();
  out += format("snapshot %zu bytes, fnv1a 0x%016llx\n",
                writer.bytes().size(),
                static_cast<unsigned long long>(snapshot_fnv1a(
                    writer.bytes().data(), writer.bytes().size())));

  if (hook == nullptr) {
    core::Pipeline restored(workload.program, config);
    const std::string bytes = writer.to_buffer(1);
    SnapshotReader reader;
    EXPECT_TRUE(reader.open_buffer(bytes, 1)) << reader.error();
    restored.load_state(&reader);
    EXPECT_TRUE(reader.ok() && reader.at_end()) << reader.error();
    pipeline.run(kInstructions / 4, kCycleLimit);
    restored.run(kInstructions / 4, kCycleLimit);
    EXPECT_EQ(restored.report(), pipeline.report());
    out += "continued:\n" + pipeline.report();
  }
  return out;
}

std::string injector_tallies(const faults::Injector& injector) {
  return format(
      "injected %llu detected %llu undetected %llu site %llu/%llu/%llu/%llu"
      " loss %llu\n",
      static_cast<unsigned long long>(injector.injected()),
      static_cast<unsigned long long>(injector.detected()),
      static_cast<unsigned long long>(injector.undetected()),
      static_cast<unsigned long long>(injector.site_fired()),
      static_cast<unsigned long long>(injector.site_detected()),
      static_cast<unsigned long long>(injector.site_masked()),
      static_cast<unsigned long long>(injector.site_sdc()),
      static_cast<unsigned long long>(injector.checker_loss()));
}

/// pinned_run under a fresh injector, plus its tallies.
std::string pinned_fault_run(const std::string& workload_name,
                             const core::CoreConfig& config,
                             faults::InjectorConfig injector_config) {
  faults::Injector injector(injector_config);
  std::string out = pinned_run(workload_name, config, &injector);
  injector.finalize_windows();
  return out + injector_tallies(injector);
}

faults::InjectorConfig result_flips() {
  faults::InjectorConfig config;
  config.rate = 3e-3;
  return config;
}

/// Per-cycle strikes on `site`.
faults::InjectorConfig site_strikes(core::FaultSite site, double rate) {
  faults::InjectorConfig config;
  config.rate = rate;
  config.site = site;
  return config;
}

TEST(CoreGolden, SchemesOnTwoWorkloads) {
  expect_digest("baseline gcc", pinned_run("gcc", core::starting_config()),
                0x60167641ac2b7afcULL);
  expect_digest("baseline li", pinned_run("li", core::starting_config()),
                0x33c29bb8811138bcULL);
  expect_digest("reese gcc", pinned_run("gcc", reese_config()),
                0x66ad8e477948a23eULL);
  expect_digest("reese li", pinned_run("li", reese_config()),
                0x88c3fef02d3c39ceULL);
  expect_digest("franklin gcc", pinned_run("gcc", franklin_config()),
                0xc89a34c403a4d2d6ULL);
  expect_digest("franklin li", pinned_run("li", franklin_config()),
                0x6c552872f96f54e2ULL);
}

TEST(CoreGolden, ReeseKnobs) {
  core::CoreConfig late = reese_config();
  late.reese.early_release = false;
  expect_digest("early_release=false", pinned_run("gcc", late),
                0x399da06c0161cdc8ULL);

  core::CoreConfig shared = reese_config();
  shared.reese.window_sharing = true;
  expect_digest("window_sharing=true", pinned_run("gcc", shared),
                0x29d1fbfcd4c149f5ULL);

  core::CoreConfig partial = reese_config();
  partial.reese.reexec_interval = 3;
  expect_digest("reexec_interval=3", pinned_run("gcc", partial),
                0x2249b287c2e6fc86ULL);

  core::CoreConfig separated = reese_config();
  separated.reese.min_separation = 4;
  expect_digest("min_separation=4", pinned_run("gcc", separated),
                0xe786fb857b7b27c3ULL);

  core::CoreConfig eager = reese_config();
  eager.reese.priority_watermark_pct = 25;
  expect_digest("priority_watermark_pct=25", pinned_run("gcc", eager),
                0x02bfc407f55a8c68ULL);
}

TEST(CoreGolden, ResultFlipHook) {
  expect_digest("baseline flips",
                pinned_fault_run("gcc", core::starting_config(),
                                 result_flips()),
                0xa04951e8cf5e00a4ULL);
  expect_digest("franklin flips",
                pinned_fault_run("gcc", franklin_config(), result_flips()),
                0x934c8382ed2fd0c4ULL);
  core::CoreConfig partial = reese_config();
  partial.reese.reexec_interval = 3;
  partial.reese.early_release = false;
  expect_digest("reese k=3 late flips",
                pinned_fault_run("li", partial, result_flips()),
                0x20d9b352121cf7ccULL);
}

TEST(CoreGolden, ComponentSiteHook) {
  expect_digest("reese rqueue",
                pinned_fault_run("gcc", reese_config(),
                                 site_strikes(core::FaultSite::kRQueue, 3e-2)),
                0xc179a5fb5c1852a0ULL);
  expect_digest("reese ruu",
                pinned_fault_run("li", reese_config(),
                                 site_strikes(core::FaultSite::kRuu, 2e-3)),
                0x35c0caa55c1b6076ULL);
  expect_digest("baseline rqueue",
                pinned_fault_run("gcc", core::starting_config(),
                                 site_strikes(core::FaultSite::kRQueue, 2e-3)),
                0xf5e61d6e0b57bc3eULL);
  expect_digest("franklin rqueue",
                pinned_fault_run("gcc", franklin_config(),
                                 site_strikes(core::FaultSite::kRQueue, 2e-3)),
                0xcbc92f19b5e6869bULL);
}

TEST(CoreGolden, FranklinTraces) {
  const workloads::Workload workload = load("li");
  faults::Injector injector(result_flips());
  core::TimelineTracer timeline(48);
  core::StringTraceSink sink;
  {
    core::ChromeTraceTracer chrome(&sink);
    struct Both final : core::Tracer {
      core::Tracer* a;
      core::Tracer* b;
      void record(const core::TraceEvent& event) override {
        a->record(event);
        b->record(event);
      }
    } both;
    both.a = &timeline;
    both.b = &chrome;
    core::Pipeline pipeline(workload.program, franklin_config());
    pipeline.set_fault_hook(&injector);
    pipeline.set_tracer(&both);
    pipeline.run(1'500, kCycleLimit);
  }
  expect_digest("franklin timeline", timeline.to_string(),
                0xe00a91332b3243c3ULL);
  expect_digest("franklin chrome trace", sink.str(), 0x95f7c47661c118fbULL);
}

}  // namespace
}  // namespace reese
