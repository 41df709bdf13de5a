// spares_explorer: answer the paper's central question interactively —
// "How much spare hardware is needed to decrease the fault-tolerance
// overhead to zero?" (§3).
//
//   $ ./build/examples/spares_explorer [-workload li] [-max_alus 6]
//
// Sweeps spare integer ALUs 0..N for one workload (or all six) and prints
// the overhead curve, marking the first configuration within 1% of the
// baseline.
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

namespace {

double run_ipc(const std::string& name, const core::CoreConfig& config,
               u64 budget) {
  auto workload = workloads::make_workload(name, {});
  sim::Simulator simulator(std::move(workload).value(), config);
  return simulator.run(budget).ipc;
}

}  // namespace

int main(int argc, char** argv) {
  u32 max_alus = 6;
  u64 budget = sim::default_instruction_budget();
  std::string workload;
  FlagParser flags;
  flags.add("-workload", &workload);
  flags.add("-max_alus", &max_alus);
  flags.add("-instr", &budget);
  if (!flags.parse_or_report(argc, argv)) return 2;

  const std::vector<std::string> names =
      workload.empty() ? workloads::spec_like_names()
                       : std::vector<std::string>{workload};

  for (const std::string& name : names) {
    const double baseline = run_ipc(name, core::starting_config(), budget);
    std::printf("%s: baseline IPC %.3f\n", name.c_str(), baseline);
    bool reached = false;
    for (u32 spares = 0; spares <= max_alus; ++spares) {
      const double ipc =
          run_ipc(name, core::with_reese(core::starting_config(), spares),
                  budget);
      const double overhead = 100.0 * (baseline - ipc) / baseline;
      const bool at_goal = !reached && overhead <= 1.0;
      if (at_goal) reached = true;
      std::printf("  +%u spare ALU%s: IPC %.3f (overhead %5.1f%%)%s\n", spares,
                  spares == 1 ? " " : "s", ipc, overhead,
                  at_goal ? "   <- within 1% of baseline" : "");
    }
    if (!reached) {
      std::printf("  (goal not reached with %u spare ALUs — the residual "
                  "cost is structural, not ALU-bound)\n", max_alus);
    }
  }
  return 0;
}
