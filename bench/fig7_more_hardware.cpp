// Figure 7: "REESE vs. baseline for even more hardware".
//
// Four configurations: RUU=64, RUU=64 + extra FUs, RUU=256, RUU=256 +
// extra FUs (LSQ always half the RUU). Series: Baseline, REESE,
// REESE+2ALU, reported as average IPC (normalized in the paper's plot).
//
// Paper's findings this must reproduce:
//  * growing only the RUU leaves the REESE gap at roughly 15%;
//  * additional functional units shrink it to about 1.5%;
//  * two spare ALUs alone already recover most of the loss.
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/strutil.h"
#include "sim/experiment.h"

using namespace reese;

namespace {

struct Point {
  std::string label;
  u32 ruu;
  bool extra_fus;
};

core::CoreConfig config_for(const Point& point) {
  core::CoreConfig config = core::starting_config();
  config.ruu_size = point.ruu;
  config.lsq_size = point.ruu / 2;
  // Keep the wide datapath of the later figures so the big window can be
  // fed.
  config.fetch_width = 16;
  config.decode_width = 16;
  config.issue_width = 16;
  config.commit_width = 16;
  config.ifq_size = 32;
  if (point.extra_fus) {
    config.int_alu_count = 8;
    config.int_mult_count = 4;
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
  const std::vector<Point> points = {
      {"RUU=64", 64, false},
      {"RUU=64+FUs", 64, true},
      {"RUU=256", 256, false},
      {"RUU=256+FUs", 256, true},
  };

  std::printf("Figure 7: REESE vs baseline for even more hardware\n");
  std::printf("  %-14s%14s%14s%14s%14s\n", "config", "Baseline", "REESE",
              "R+2ALU", "REESE gap");
  for (const Point& point : points) {
    sim::ExperimentSpec spec;
    spec.jobs = jobs;
    spec.checkpoint = checkpoint;
    spec.title = point.label;
    spec.base = config_for(point);
    spec.models = {sim::Model::kBaseline, sim::Model::kReese,
                   sim::Model::kReese2Alu};
    const sim::ExperimentResult result = sim::run_experiment(spec);
    std::printf("  %-14s%14.3f%14.3f%14.3f%13.1f%%\n", point.label.c_str(),
                result.average(0), result.average(1), result.average(2),
                result.overhead_pct(1));
  }
  return 0;
}
