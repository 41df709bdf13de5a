// Figure 2: "Initial Comparison Between REESE and Baseline".
//
// Starting configuration (Table 1): 8-wide, fetch queue 16, RUU 16, LSQ 8,
// 4 integer ALUs + 1 mult/div, 2 memory ports, gshare. Bars: Baseline,
// REESE, REESE +1 ALU, +2 ALU, +2 ALU +1 Mult, per benchmark plus the
// average.
//
// Paper's observations this should reproduce:
//  * baseline IPC below 2 ("an RUU-based microprocessor cannot attain
//    2 IPC on a regular basis"),
//  * REESE 11-16% below baseline without spares,
//  * spare integer ALUs close most of the gap; the spare multiplier adds
//    little.
#include <cstdio>

#include "common/flags.h"
#include "sim/experiment.h"

int main(int argc, char** argv) {
  reese::sim::ExperimentSpec spec;
  reese::FlagParser flags;
  reese::sim::add_grid_flags(&flags, &spec);
  if (!flags.parse_or_report(argc, argv)) return 2;
  spec.title = "Figure 2: initial comparison between REESE and baseline "
               "(starting configuration)";
  spec.base = reese::core::starting_config();
  const reese::sim::ExperimentResult result = reese::sim::run_experiment(spec);
  std::fputs(result.table().c_str(), stdout);
  return 0;
}
