#include "sim/simulator.h"

#include <cstdio>
#include <limits>

#include "common/flags.h"

namespace reese::sim {

Simulator::Simulator(workloads::Workload workload,
                     const core::CoreConfig& config)
    : workload_(std::move(workload)) {
  pipeline_ = std::make_unique<core::Pipeline>(workload_.program, config);
}

SimResult Simulator::run(u64 instructions) {
  SimResult result;
  result.workload = workload_.name;
  result.stop = pipeline_->run(instructions, default_cycle_limit(instructions));
  result.ipc = pipeline_->stats().ipc();
  result.cycles = pipeline_->stats().cycles;
  result.committed = pipeline_->stats().committed;
  return result;
}

Cycle default_cycle_limit(u64 instructions) {
  if (const u64 limit = env_positive("REESE_SIM_CYCLE_LIMIT", 0)) {
    return static_cast<Cycle>(limit);
  }
  constexpr Cycle kMaxCycle = std::numeric_limits<Cycle>::max();
  if (instructions > kMaxCycle / 64) {
    std::fprintf(stderr,
                 "reese: 64 x %llu instructions overflows the cycle counter; "
                 "clamping cycle limit to %llu\n",
                 static_cast<unsigned long long>(instructions),
                 static_cast<unsigned long long>(kMaxCycle));
    return kMaxCycle;
  }
  return 64 * instructions;
}

u64 default_instruction_budget() {
  // Smallest budget at which the figures' per-model overhead converges:
  // at 1M every bar of fig2 is within 0.3pp of a 10M reference run, while
  // 300k is off by up to 0.5pp (see EXPERIMENTS.md).
  return env_positive("REESE_SIM_INSTR", 1'000'000);
}

}  // namespace reese::sim
