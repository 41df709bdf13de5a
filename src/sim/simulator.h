// Simulator: owns a workload + pipeline pair and runs an instruction
// budget. This is the top-level object example programs and benches use.
#pragma once

#include <memory>
#include <string>

#include "core/pipeline.h"
#include "workloads/workload.h"

namespace reese::sim {

struct SimResult {
  std::string workload;
  core::StopReason stop = core::StopReason::kCommitTarget;
  double ipc = 0.0;
  Cycle cycles = 0;
  u64 committed = 0;
};

class Simulator {
 public:
  /// Takes ownership of the workload so the program outlives the pipeline.
  Simulator(workloads::Workload workload, const core::CoreConfig& config);

  /// Simulate until `instructions` have committed (cumulative across
  /// calls). A cycle limit (default_cycle_limit) guards against modelling
  /// deadlocks; when hit, the result carries StopReason::kCycleLimit and
  /// `cycles` holds the offending cycle count.
  SimResult run(u64 instructions);

  core::Pipeline& pipeline() { return *pipeline_; }
  const workloads::Workload& workload() const { return workload_; }

 private:
  workloads::Workload workload_;
  std::unique_ptr<core::Pipeline> pipeline_;
};

/// Instruction budget for figure reproduction: $REESE_SIM_INSTR if set
/// (a value that is not a positive integer warns and is ignored),
/// otherwise 1M — the smallest budget at which the figures' per-model
/// overhead is converged (within 0.3pp of a 10M reference; see
/// EXPERIMENTS.md). The paper ran 100M on real SPEC binaries; the
/// `overnight` target reproduces that scale.
u64 default_instruction_budget();

/// Deadlock guard for Simulator::run: $REESE_SIM_CYCLE_LIMIT if set (an
/// absolute cycle count; a value that is not a positive integer warns and
/// is ignored), otherwise 64x the instruction
/// budget — generous slack over the worst credible CPI.
Cycle default_cycle_limit(u64 instructions);

}  // namespace reese::sim
