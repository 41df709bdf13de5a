// Figure 3: "Comparing REESE and baseline: RUU size = 32 and LSQ size = 16".
//
// Doubling the RUU and LSQ separates window-capacity limits from REESE's
// own cost: if both models gain equally, the gap is REESE-specific; the
// paper uses this to show the gap stays in the 11-16% band.
#include <cstdio>

#include "common/flags.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  reese::sim::ExperimentSpec spec;
  reese::FlagParser flags;
  reese::sim::add_grid_flags(&flags, &spec.jobs, &spec.checkpoint);
  if (!flags.parse_or_report(argc, argv)) return 2;
  spec.title = "Figure 3: REESE vs baseline with RUU=32, LSQ=16";
  spec.base = reese::core::starting_config();
  spec.base.ruu_size = 32;
  spec.base.lsq_size = 16;
  const reese::sim::ExperimentResult result = reese::sim::run_experiment(spec);
  std::fputs(result.table().c_str(), stdout);
  return 0;
}
