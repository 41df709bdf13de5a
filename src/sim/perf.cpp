#include "sim/perf.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/diag.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "sim/simulator.h"

namespace reese::sim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const usize mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

/// One timed simulation: fresh workload + pipeline, returns kIPS.
double time_one_run(const std::string& workload_name, u64 instructions) {
  workloads::WorkloadOptions options;
  options.iterations = 0;
  auto workload = workloads::make_workload(workload_name, options);
  if (!workload.ok()) {
    std::fprintf(stderr, "perf: %s\n", workload.error().to_string().c_str());
    std::exit(1);
  }
  Simulator simulator(std::move(workload).value(), core::starting_config());
  const auto start = Clock::now();
  const SimResult result = simulator.run(instructions);
  const double elapsed = seconds_since(start);
  if (result.stop != core::StopReason::kCommitTarget) {
    std::fprintf(stderr, "perf: %s stopped early (%s) after %llu insts\n",
                 workload_name.c_str(), core::stop_reason_name(result.stop),
                 static_cast<unsigned long long>(result.committed));
    std::exit(1);
  }
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(result.committed) / elapsed / 1000.0;
}

}  // namespace

PerfReport run_perf(const PerfOptions& options_in) {
  PerfOptions options = options_in;
  if (options.workloads.empty()) {
    options.workloads = workloads::spec_like_names();
  }
  if (options.quick) {
    options.reps = std::min<u32>(options.reps, 3);
    options.warmup_reps = std::min<u32>(options.warmup_reps, 1);
  }

  PerfReport report;
  report.options = options;
  report.instructions = options.instructions != 0
                            ? options.instructions
                            : options.quick ? 60'000
                                            : default_instruction_budget();

  // Per-workload single-thread kIPS.
  std::vector<double> medians;
  for (const std::string& name : options.workloads) {
    for (u32 i = 0; i < options.warmup_reps; ++i) {
      time_one_run(name, report.instructions);
    }
    std::vector<double> samples;
    for (u32 i = 0; i < options.reps; ++i) {
      samples.push_back(time_one_run(name, report.instructions));
    }
    WorkloadPerf perf;
    perf.workload = name;
    perf.median_kips = median(samples);
    perf.min_kips = *std::min_element(samples.begin(), samples.end());
    perf.max_kips = *std::max_element(samples.begin(), samples.end());
    report.workloads.push_back(perf);
    medians.push_back(perf.median_kips);
    std::fprintf(stderr, "perf: %-10s %9.1f kIPS (min %.1f, max %.1f)\n",
                 name.c_str(), perf.median_kips, perf.min_kips,
                 perf.max_kips);
  }
  report.aggregate_kips = median(medians);

  // Grid measurement: the fig2-style matrix, sequential vs pooled. A
  // reduced budget keeps this phase comparable in cost to one rep of the
  // per-workload loop.
  ExperimentSpec grid;
  grid.title = "perf grid";
  grid.base = core::starting_config();
  grid.instructions = std::min<u64>(report.instructions, 60'000);

  grid.jobs = 1;
  auto start = Clock::now();
  const ExperimentResult seq = run_experiment(grid);
  report.grid_seq_seconds = seconds_since(start);

  grid.jobs = options.jobs;
  report.grid_jobs = resolve_job_count(options.jobs);
  start = Clock::now();
  const ExperimentResult par = run_experiment(grid);
  report.grid_par_seconds = seconds_since(start);

  report.grid_identical = seq.cells == par.cells;
  report.grid_speedup = report.grid_par_seconds > 0.0
                            ? report.grid_seq_seconds / report.grid_par_seconds
                            : 0.0;
  std::fprintf(stderr,
               "perf: grid %.2fs sequential, %.2fs with %u jobs "
               "(%.2fx, results %s)\n",
               report.grid_seq_seconds, report.grid_par_seconds,
               report.grid_jobs, report.grid_speedup,
               report.grid_identical ? "identical" : "DIFFER");
  return report;
}

std::string PerfReport::json() const {
  std::string out = "{\n";
  // Commit anchor: bench_diff.py records which commit (and budget) a
  // baseline artifact was measured at, so regressions are attributed to a
  // concrete revision instead of "some older run". $GITHUB_SHA in CI,
  // $REESE_GIT_SHA for local A/B runs, empty when neither is set.
  const char* sha = std::getenv("GITHUB_SHA");
  if (sha == nullptr || *sha == '\0') sha = std::getenv("REESE_GIT_SHA");
  out += format("  \"git_sha\": \"%s\",\n",
                json_escape(sha == nullptr ? "" : sha).c_str());
  out += format("  \"instructions\": %llu,\n",
                static_cast<unsigned long long>(instructions));
  out += format("  \"reps\": %u,\n", options.reps);
  out += format("  \"quick\": %s,\n", options.quick ? "true" : "false");
  out += "  \"workloads\": [\n";
  for (usize i = 0; i < workloads.size(); ++i) {
    const WorkloadPerf& perf = workloads[i];
    out += format(
        "    {\"workload\": \"%s\", \"median_kips\": %.2f, "
        "\"min_kips\": %.2f, \"max_kips\": %.2f}%s\n",
        json_escape(perf.workload).c_str(), perf.median_kips,
        perf.min_kips, perf.max_kips,
        i + 1 < workloads.size() ? "," : "");
  }
  out += "  ],\n";
  out += format("  \"aggregate_kips\": %.2f,\n", aggregate_kips);
  out += "  \"grid\": {\n";
  out += format("    \"sequential_seconds\": %.4f,\n", grid_seq_seconds);
  out += format("    \"parallel_seconds\": %.4f,\n", grid_par_seconds);
  out += format("    \"jobs\": %u,\n", grid_jobs);
  out += format("    \"speedup\": %.3f,\n", grid_speedup);
  out += format("    \"identical\": %s\n", grid_identical ? "true" : "false");
  out += "  }\n";
  out += "}\n";
  return out;
}

bool write_perf_report(const PerfReport& report, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "perf: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string json = report.json();
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  return true;
}

}  // namespace reese::sim
