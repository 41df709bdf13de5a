// reese_perfbench: the repository benchmark program.
//
//   reese_perfbench --workload spec95|heldout --seed N --seconds S --trace 0|1
//                   [--scale full|tiny] [--references FILE]
//                   [--perturb-reference] [--out-dir DIR]
//                   [--git-sha SHA] [--source-digest HEX]
//   reese_perfbench --workload W --seed N --record-references
//   reese_perfbench --workload W --seed N --inputs-digest
//
// A run sets up (programs, specs, three services listening on loopback),
// then spends --seconds in rounds of four phases: fig2_grid,
// fault_campaign, service_mix, fleet_campaign. Between rounds it times more
// set-ups; setup_s is the median of all of them.
// With --trace 0 the last stdout line is a JSON object carrying every
// end-to-end metric; with --trace 1 the rounds alternate untraced and
// traced (the difference is the tracing overhead), the per-layer probes
// follow, and the JSON object carries the per-layer metrics. Earlier
// stdout lines hold the provenance record and a readable report.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include "bench.h"
#include "common/diag.h"
#include "common/strutil.h"
#include "sim/checkpoint.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#define PERFBENCH_BUILD_FLAGS ""
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace reese;

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string references;
  bool perturb_reference = false;
  bool record_references = false;
  bool inputs_digest = false;
  std::string out_dir = ".";
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "reese_perfbench: %s\n", why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((flag + " needs a value").c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      char* end = nullptr;
      const std::string text = value();
      options.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') usage("--seed must be an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value().c_str());
      if (!(options.seconds > 0.0) || options.seconds > 3600.0) {
        usage("--seconds must be in (0, 3600]");
      }
    } else if (flag == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
      options.trace = trace == "1";
    } else if (flag == "--scale") {
      const std::string scale = value();
      if (scale != "full" && scale != "tiny") usage("--scale: full or tiny");
      options.scale = scale == "full" ? Scale::kFull : Scale::kTiny;
    } else if (flag == "--references") {
      options.references = value();
    } else if (flag == "--perturb-reference") {
      options.perturb_reference = true;
    } else if (flag == "--record-references") {
      options.record_references = true;
    } else if (flag == "--inputs-digest") {
      options.inputs_digest = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value();
    } else if (flag == "--git-sha") {
      options.git_sha = value();
    } else if (flag == "--source-digest") {
      options.source_digest = value();
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return options;
}

/// Numbers from an unoptimised or sanitizer build measure a different
/// program; refuse to report them.
bool build_is_measurable(std::string* why) {
#if !defined(__OPTIMIZE__)
  *why = "unoptimised build (no -O flag)";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  *why = "sanitizer build";
  return false;
#endif
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_BUILD_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type " + type + " (Release or RelWithDebInfo required)";
    return false;
  }
  if (flags.find("-fsanitize") != std::string::npos ||
      flags.find("-O0") != std::string::npos) {
    *why = "build flags \"" + flags + "\"";
    return false;
  }
  return true;
}

/// Peak resident memory of this program image. VmHWM starts afresh at
/// exec; getrusage's ru_maxrss does not, so under a launcher (run.py) it
/// reports the launcher's memory at fork. getrusage is the fallback where
/// /proc is missing.
double peak_rss_mb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib > 0.0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string provenance_json(const Options& o, const Inputs& in) {
  const Budgets& b = in.budgets;
  std::string fingerprints;
  for (usize m = 0; m < kModelCount; ++m) {
    fingerprints += format(
        "%s\"%s\": \"%016llx\"", m == 0 ? "" : ", ", model_key(m),
        static_cast<unsigned long long>(sim::snapshot_fingerprint(
            in.regime->programs[0], model_config(m))));
  }
  for (const sim::CampaignVariant& variant : in.campaign.variants) {
    fingerprints += format(
        ", \"campaign:%s\": \"%016llx\"", variant.label.c_str(),
        static_cast<unsigned long long>(sim::snapshot_fingerprint(
            in.regime->programs[0], variant.config)));
  }
  return format(
      "{\"perfbench\": {\"workload\": \"%s\", \"scale\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"build_type\": \"%s\", \"build_flags\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %ld, \"inputs_digest\": \"%016llx\", "
      "\"budgets\": {\"grid_instructions\": %llu, "
      "\"campaign_instructions\": %llu, \"campaign_replicas\": %u, "
      "\"campaign_rate\": %g, \"job_instructions\": %llu, "
      "\"job_campaign_instructions\": %llu}, "
      "\"caches\": \"modelled caches start empty in every cell\", "
      "\"reference_probe_ms\": %g, "
      "\"fingerprints\": {\"program\": \"%s\", %s}}}",
      in.regime->name.c_str(), scale_name(in.scale),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      json_escape(o.git_sha).c_str(), json_escape(o.source_digest).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_BUILD_FLAGS).c_str(),
      PERFBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN),
      static_cast<unsigned long long>(inputs_digest(in)),
      static_cast<unsigned long long>(b.grid_instructions),
      static_cast<unsigned long long>(b.campaign_instructions),
      b.campaign_replicas, b.campaign_rate,
      static_cast<unsigned long long>(b.job_instructions),
      static_cast<unsigned long long>(b.job_campaign_instructions),
      kReferenceProbeS * 1e3, in.regime->programs[0].c_str(),
      fingerprints.c_str());
}

/// Time fault_campaign, service_mix and fleet_campaign each get per round,
/// as a share of the round's grid pass: 56/17/11/17% overall. The grid
/// feeds four of the gated rates and spreads most between runs, so it gets
/// the most samples; service_mix gates no end-to-end metric.
constexpr double kCampaignShare = 0.3;
constexpr double kServiceShare = 0.2;
constexpr double kFleetShare = 0.3;

/// Sets up once: generates the inputs and starts the three services. Its
/// process CPU time is appended to `setup_s`. nullptr when a service
/// cannot start.
std::unique_ptr<Environment> timed_setup(const Regime& regime, Scale scale,
                                         u64 seed, Inputs* inputs,
                                         std::vector<double>* setup_s) {
  const double begin = process_cpu_s();
  *inputs = make_inputs(regime, scale, seed);
  std::unique_ptr<Environment> env = make_environment();
  setup_s->push_back(process_cpu_s() - begin);
  return env;
}

/// The fleet's wall-clock rate as a share of the single-node campaign's,
/// from the operations one round appended. Both run the same spec, so it is
/// the ratio of their median wall times; host drift slower than a round
/// cancels out.
void note_fleet_wall_ratio(Samples* s, usize campaign_first,
                           usize fleet_first) {
  const std::vector<double> campaign(s->campaign_op_s.begin() + campaign_first,
                                     s->campaign_op_s.end());
  const std::vector<double> fleet(s->fleet_op_s.begin() + fleet_first,
                                  s->fleet_op_s.end());
  if (campaign.empty() || fleet.empty()) return;
  s->fleet_wall_ratio.push_back(median(campaign) / median(fleet));
}

/// Rounds of one grid pass followed by the other three phases, each given
/// its share of the pass's time, until `seconds` have elapsed. Host speed
/// on a shared machine drifts over seconds; interleaving lets every phase
/// sample the whole run instead of one stretch of it. With several contexts
/// (the traced run's untraced and traced halves) the rounds alternate
/// between them, so drift cannot pass for tracing overhead. `between_rounds`
/// runs after each round (the extra timed set-ups).
///
/// Returns the peak RSS once every context has run one round: every phase
/// has then held its full working set. Memory keeps growing over later
/// rounds, so a faster host, running more rounds, would otherwise report
/// more; the traced run reports the end-of-run figure separately.
double run_rounds(const std::vector<PhaseContext>& contexts, double seconds,
                  const std::function<void()>& between_rounds) {
  host_probe_s();  // builds the probe's cycles before anything is timed
  const Clock::time_point start = Clock::now();
  double rss_mb = 0.0;
  usize round = 0;
  do {
    const PhaseContext& ctx = contexts[round++ % contexts.size()];
    Samples& s = *ctx.samples;
    const Clock::time_point pass = Clock::now();
    run_fig2_pass(ctx);
    const double pass_s = seconds_between(pass, Clock::now());
    const usize campaign_first = s.campaign_op_s.size();
    run_fault_campaign(ctx, pass_s * kCampaignShare);
    run_service_mix(ctx, pass_s * kServiceShare);
    const usize fleet_first = s.fleet_op_s.size();
    run_fleet_campaign(ctx, pass_s * kFleetShare);
    note_fleet_wall_ratio(&s, campaign_first, fleet_first);
    if (round == contexts.size()) rss_mb = peak_rss_mb();
    if (between_rounds) between_rounds();
  } while (round < contexts.size() ||
           seconds_between(start, Clock::now()) < seconds);
  return rss_mb;
}

/// Readable lines for the timings: median, the highest percentile with ten
/// samples beyond it, and the sample count.
void print_timing(const char* name, const std::vector<double>& values,
                  const char* unit) {
  const double tail = tail_fraction(values.size());
  std::printf("  %-22s median %10.4f %s", name, median(values), unit);
  if (tail > 0.0) {
    std::printf("   p%-5g %10.4f %s", tail * 100.0, percentile(values, tail),
                unit);
  }
  std::printf("   n=%zu\n", values.size());
}

void print_samples(const Samples& s) {
  std::printf("timings (host time):\n");
  print_timing("grid pass", s.grid_pass_s, "s");
  print_timing("grid pass (ref. CPU)", s.grid_pass_ref_s, "s");
  print_timing("fault campaign", s.campaign_op_s, "s");
  print_timing("fault campaign (ref.)", s.campaign_op_ref_s, "s");
  print_timing("job submit->result", s.job_ms, "ms");
  print_timing("result fetch/scrape", s.fetch_ms, "ms");
  print_timing("fleet campaign", s.fleet_op_s, "s");
  print_timing("fleet campaign (ref.)", s.fleet_op_ref_s, "s");
  print_timing("host probe", s.probe_s, "s");
  std::printf("  injections: campaign %llu, fleet %llu; jobs completed %llu\n",
              static_cast<unsigned long long>(s.campaign_injections),
              static_cast<unsigned long long>(s.fleet_injections),
              static_cast<unsigned long long>(s.jobs_completed));
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (usize i = 0; i < metrics.size(); ++i) {
    out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
  }
  return out + "}";
}

const Metric* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

int run(const Options& options) {
  const Regime* regime = find_regime(options.workload);
  if (regime == nullptr) {
    usage(("unknown workload " + options.workload +
           " (expected spec95 or heldout)").c_str());
  }
  if (options.inputs_digest) {
    const Inputs inputs = make_inputs(*regime, options.scale, options.seed);
    std::printf("%016llx\n",
                static_cast<unsigned long long>(inputs_digest(inputs)));
    return 0;
  }
  std::string why;
  if (!build_is_measurable(&why)) {
    std::fprintf(stderr, "reese_perfbench: refusing to report from a %s\n",
                 why.c_str());
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  const std::string prefix =
      format("%s %s %llu", regime->name.c_str(), scale_name(options.scale),
             static_cast<unsigned long long>(options.seed));
  References references;
  if (!options.references.empty() && !options.record_references) {
    std::string error;
    if (!references.load(options.references, &error)) usage(error.c_str());
  }
  if (options.perturb_reference && !references.perturb(prefix)) {
    usage("--perturb-reference: no committed reference for this seed");
  }
  const bool referenced = references.has_prefix(prefix);
  Checker checker(options.record_references ? nullptr : &references, prefix);

  // The run's own set-up. More are timed after each round and discarded,
  // so the set-up samples, like the phases, span the whole run.
  std::vector<double> setup_s;
  Inputs inputs;
  const std::unique_ptr<Environment> env = timed_setup(
      *regime, options.scale, options.seed, &inputs, &setup_s);
  if (env == nullptr) return 1;
  bool setup_failed = false;
  const auto more_setups = [&] {
    for (int k = 0; k < inputs.budgets.setups_per_round; ++k) {
      Inputs discarded;
      if (timed_setup(*regime, options.scale, options.seed, &discarded,
                      &setup_s) == nullptr) {
        setup_failed = true;
      }
    }
  };

  Samples samples;
  PhaseContext ctx{&inputs, env.get(), &checker, nullptr, &samples,
                   options.out_dir};

  if (options.record_references) {
    run_rounds({ctx}, 0.0, nullptr);  // one operation per phase
    if (checker.mismatches() != 0 || samples.failed != 0) {
      std::fprintf(stderr, "reese_perfbench: outputs failed their checks\n");
      return 1;
    }
    for (const auto& [item, value] : checker.observed()) {
      std::printf("%s %s\t%s\n", prefix.c_str(), item.c_str(), value.c_str());
    }
    return 0;
  }

  std::printf("%s\n", provenance_json(options, inputs).c_str());
  std::vector<Metric> metrics;
  u64 attempted = 0;
  u64 failed = 0;
  if (!options.trace) {
    const double rss_mb = run_rounds({ctx}, options.seconds, more_setups);
    metrics = end_to_end_metrics(samples, median(setup_s), rss_mb);
    print_samples(samples);
    std::printf("peak RSS: %.1f MB after the first round, %.1f MB at the "
                "end\n",
                rss_mb, peak_rss_mb());
    std::printf("wall-clock figures (per-layer, not gated):\n");
    for (const Metric& metric : wall_metrics(samples)) {
      std::printf("  %-24s %12.4f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    attempted = samples.attempted;
    failed = samples.failed;
  } else {
    // Rounds alternate untraced and traced: the difference is the overhead.
    Samples traced_samples;
    SpanLog spans;
    PhaseContext traced_ctx = ctx;
    traced_ctx.samples = &traced_samples;
    traced_ctx.spans = &spans;
    const double rss_mb =
        run_rounds({ctx, traced_ctx}, options.seconds, more_setups);
    // Growth over the later rounds (job tables, retained results) would
    // pass the first-round figure unseen.
    const double rss_end_mb = peak_rss_mb();
    const auto figures = [&](const Samples& s) {
      std::vector<Metric> all =
          end_to_end_metrics(s, median(setup_s), rss_mb);
      for (Metric& metric : wall_metrics(s)) all.push_back(metric);
      return all;
    };
    const std::vector<Metric> untraced = figures(samples);
    const std::vector<Metric> traced = figures(traced_samples);
    print_samples(traced_samples);
    std::printf("tracing overhead (traced - untraced):\n");
    for (usize i = 0; i < traced.size(); ++i) {
      std::printf("  %-24s untraced %12.4f  traced %12.4f %s\n",
                  traced[i].name.c_str(), untraced[i].value, traced[i].value,
                  traced[i].unit.c_str());
    }
    metrics = layer_metrics(traced_ctx);
    metrics.push_back({"peak_rss_end_mb", rss_end_mb, "MB"});
    // Positive = tracing made the phase slower, judged on its primary
    // end-to-end metric.
    const auto overhead = [&](const char* name, bool lower_is_better) {
      const double u = find_metric(untraced, name)->value;
      const double t = find_metric(traced, name)->value;
      if (u <= 0.0 || t <= 0.0) return 0.0;
      return (lower_is_better ? t / u - 1.0 : u / t - 1.0) * 100.0;
    };
    metrics.push_back({"trace.overhead_pct.fig2_grid",
                       overhead("grid_cpu_s", true), "%"});
    metrics.push_back({"trace.overhead_pct.fault_campaign",
                       overhead("campaign_inj_per_s", false), "%"});
    metrics.push_back({"trace.overhead_pct.service_mix",
                       overhead("jobs_per_s", false), "%"});
    metrics.push_back({"trace.overhead_pct.fleet_campaign",
                       overhead("fleet_inj_per_s", false), "%"});
    const std::string trace_path =
        format("%s/%s-%s-seed%llu.trace.json", options.out_dir.c_str(),
               regime->name.c_str(), scale_name(options.scale),
               static_cast<unsigned long long>(options.seed));
    if (spans.write_chrome_trace(trace_path)) {
      std::printf("spans: %zu written to %s\n", spans.size(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "reese_perfbench: cannot write %s\n",
                   trace_path.c_str());
    }
    attempted = samples.attempted + traced_samples.attempted;
    failed = samples.failed + traced_samples.failed;
  }

  if (setup_failed) return 1;
  const bool correct = failed == 0 && checker.mismatches() == 0;
  std::printf("correctness: %llu reference comparisons, %llu mismatches%s\n",
              static_cast<unsigned long long>(checker.reference_checks()),
              static_cast<unsigned long long>(checker.mismatches()),
              referenced ? ""
                         : " (no committed reference for this seed: outputs "
                           "checked against invariants and repeats only)");
  std::printf("metrics:\n");
  for (const Metric& metric : metrics) {
    std::printf("  %-40s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (const Metric* reese = find_metric(metrics, "core.overhead_pct.reese")) {
    std::printf("Figure 2 check: REESE IPC overhead %.1f%% here; the paper "
                "reports 11-16%% (the model is not validated against "
                "hardware)\n",
                reese->value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The simulator reads these from the environment; a benchmark run must
  // not inherit them.
  for (const char* name : {"REESE_SIM_INSTR", "REESE_SIM_CYCLE_LIMIT",
                           "REESE_JOBS", "REESE_CSV_DIR"}) {
    ::unsetenv(name);
  }
  return perfbench::run(perfbench::parse_options(argc, argv));
}
