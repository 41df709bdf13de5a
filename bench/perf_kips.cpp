// Simulator-throughput tracker: measures simulated kIPS per workload plus
// sequential-vs-parallel grid wall time, and writes BENCH_perf.json for
// tools/bench_diff.py / CI archiving.
//
// Usage: perf_kips [--quick] [--jobs N] [--reps N] [--warmup N]
//                  [--instructions N] [--out PATH]
//
//   --quick          CI mode: 3 reps, 60k-instruction runs
//   --jobs N         workers for the parallel grid phase (default: auto)
//   --out PATH       report path (default: BENCH_perf.json in the CWD)
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "sim/perf.h"

int main(int argc, char** argv) {
  reese::sim::PerfOptions options;
  std::string out_path = "BENCH_perf.json";

  reese::FlagParser flags;
  flags.add("--quick", &options.quick);
  flags.add("--jobs", &options.jobs);
  flags.add("--reps", &options.reps);
  flags.add("--warmup", &options.warmup_reps);
  flags.add("--instructions", &options.instructions);
  flags.add("--out", &out_path);
  if (!flags.parse_or_report(argc, argv)) return 2;

  const reese::sim::PerfReport report = reese::sim::run_perf(options);
  if (!reese::sim::write_perf_report(report, out_path)) return 1;
  std::printf("%s", report.json().c_str());
  std::fprintf(stderr, "perf_kips: wrote %s\n", out_path.c_str());
  return report.grid_identical ? 0 : 1;
}
