// Figure 5: "IPC for additional memory ports".
//
// Memory ports double from 2 to 4 (on top of the Figure 4 configuration).
// The paper: "added memory ports significantly improved the performance of
// REESE", and the +2ALU+1Mult bar is omitted because it matched +2ALU.
#include <cstdio>

#include "common/flags.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  reese::sim::ExperimentSpec spec;
  reese::FlagParser flags;
  reese::sim::add_grid_flags(&flags, &spec.jobs, &spec.checkpoint);
  if (!flags.parse_or_report(argc, argv)) return 2;
  spec.title = "Figure 5: IPC for additional memory ports (4 ports)";
  spec.base = reese::core::starting_config();
  spec.base.ruu_size = 32;
  spec.base.lsq_size = 16;
  spec.base.fetch_width = 16;
  spec.base.decode_width = 16;
  spec.base.issue_width = 16;
  spec.base.commit_width = 16;
  spec.base.ifq_size = 32;
  spec.base.mem_port_count = 4;
  // The paper drops the +2ALU+1Mult bar here (it matched +2ALU).
  spec.models = {reese::sim::Model::kBaseline, reese::sim::Model::kReese,
                 reese::sim::Model::kReese1Alu, reese::sim::Model::kReese2Alu};
  const reese::sim::ExperimentResult result = reese::sim::run_experiment(spec);
  std::fputs(result.table().c_str(), stdout);
  return 0;
}
