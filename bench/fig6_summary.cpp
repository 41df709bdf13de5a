// Figure 6: "Summary of results".
//
// Average IPC per hardware variation (None / RUU,LSQ 2X / Ex.Q 2X /
// MemPorts) for each model, i.e. the averages of Figures 2-5 side by side.
// The paper's reading: added memory ports significantly improve REESE.
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/strutil.h"
#include "sim/experiment.h"

using namespace reese;

namespace {

core::CoreConfig variation(int which) {
  core::CoreConfig config = core::starting_config();
  if (which >= 1) {  // RUU,LSQ 2X
    config.ruu_size = 32;
    config.lsq_size = 16;
  }
  if (which >= 2) {  // Ex.Q 2X (16-wide datapath)
    config.fetch_width = 16;
    config.decode_width = 16;
    config.issue_width = 16;
    config.commit_width = 16;
    config.ifq_size = 32;
  }
  if (which >= 3) {  // MemPorts 2X
    config.mem_port_count = 4;
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  u32 jobs = 0;
  sim::CheckpointOptions checkpoint;
  FlagParser flags;
  sim::add_grid_flags(&flags, &jobs, &checkpoint);
  if (!flags.parse_or_report(argc, argv)) return 2;
  const std::vector<std::string> variations = {"None", "RUU,LSQ 2X", "Ex.Q 2X",
                                               "MemPorts"};
  std::printf("Figure 6: summary of results (average IPC per hardware "
              "variation)\n");
  std::printf("  %-12s", "variation");
  for (sim::Model model : sim::standard_models()) {
    std::printf("%14s", sim::model_name(model));
  }
  std::printf("%14s\n", "REESE gap");

  for (int which = 0; which < 4; ++which) {
    sim::ExperimentSpec spec;
    spec.jobs = jobs;
    spec.checkpoint = checkpoint;
    spec.title = variations[which];
    spec.base = variation(which);
    const sim::ExperimentResult result = sim::run_experiment(spec);
    std::printf("  %-12s", variations[which].c_str());
    for (usize m = 0; m < result.spec.models.size(); ++m) {
      std::printf("%14.3f", result.average(m));
    }
    std::printf("%13.1f%%\n", result.overhead_pct(1));
  }
  return 0;
}
