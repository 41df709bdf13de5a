// Figure 4: "IPC for 16-wide datapath".
//
// The datapath width doubles from 8 to 16 (fetch/decode/issue/commit),
// keeping the Figure 3 RUU=32 / LSQ=16 sizes, to check that pipeline
// bandwidth is not artificially limiting either model.
#include <cstdio>

#include "common/flags.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  reese::sim::ExperimentSpec spec;
  reese::FlagParser flags;
  reese::sim::add_grid_flags(&flags, &spec);
  if (!flags.parse_or_report(argc, argv)) return 2;
  spec.title = "Figure 4: IPC for 16-wide datapath (RUU=32, LSQ=16)";
  spec.base = reese::core::starting_config();
  spec.base.ruu_size = 32;
  spec.base.lsq_size = 16;
  spec.base.fetch_width = 16;
  spec.base.decode_width = 16;
  spec.base.issue_width = 16;
  spec.base.commit_width = 16;
  spec.base.ifq_size = 32;
  const reese::sim::ExperimentResult result = reese::sim::run_experiment(spec);
  std::fputs(result.table().c_str(), stdout);
  return 0;
}
