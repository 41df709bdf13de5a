// The paper-scale push: every figure experiment (figs 2-7) at the paper's
// 100M-instruction budget, fanned over the thread pool with periodic
// checkpoints so an interrupted night resumes instead of restarting.
//
// The DSN'01 paper ran 100M instructions per SPEC95 benchmark; the CI
// figures run the converged 1M default (see default_instruction_budget).
// This harness closes the gap: `cmake --build build --target overnight`
// runs the full grid and emits BENCH_overnight.json (schema
// "reese-overnight-v1", validated by tools/bench_diff.py).
//
// Usage: overnight_bench [--jobs N] [--instructions N] [--out PATH]
//                        [--checkpoint-dir D] [--checkpoint-interval N]
//                        [--resume-from D] [--no-checkpoint]
//
// Checkpointing defaults ON: cells snapshot every 10M committed
// instructions into ./overnight-ckpt and finished cells leave ".done"
// records, so rerunning the target after a kill continues bit-identically
// (same interval => same drain barriers; see sim/checkpoint.h). Figure 6
// is the summary of figures 2-5, so it is assembled from their averages
// rather than re-simulated.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "sim/experiment.h"

using namespace reese;

namespace {

constexpr u64 kPaperBudget = 100'000'000;
constexpr u64 kDefaultInterval = 10'000'000;

struct Figure {
  std::string name;  ///< stable key in the JSON ("fig2", "fig7_ruu64", ...)
  sim::ExperimentSpec spec;
};

core::CoreConfig wide_config() {
  core::CoreConfig config = core::starting_config();
  config.ruu_size = 32;
  config.lsq_size = 16;
  config.fetch_width = 16;
  config.decode_width = 16;
  config.issue_width = 16;
  config.commit_width = 16;
  config.ifq_size = 32;
  return config;
}

core::CoreConfig fig7_config(u32 ruu, bool extra_fus) {
  core::CoreConfig config = wide_config();
  config.ruu_size = ruu;
  config.lsq_size = ruu / 2;
  if (extra_fus) {
    config.int_alu_count = 8;
    config.int_mult_count = 4;
    config.mem_port_count = 4;
  }
  return config;
}

std::vector<Figure> figure_set() {
  std::vector<Figure> figures;

  Figure fig2{"fig2", {}};
  fig2.spec.title = "Figure 2: initial comparison (starting configuration)";
  fig2.spec.base = core::starting_config();
  figures.push_back(fig2);

  Figure fig3{"fig3", {}};
  fig3.spec.title = "Figure 3: RUU=32, LSQ=16";
  fig3.spec.base = core::starting_config();
  fig3.spec.base.ruu_size = 32;
  fig3.spec.base.lsq_size = 16;
  figures.push_back(fig3);

  Figure fig4{"fig4", {}};
  fig4.spec.title = "Figure 4: 16-wide datapath (RUU=32, LSQ=16)";
  fig4.spec.base = wide_config();
  figures.push_back(fig4);

  Figure fig5{"fig5", {}};
  fig5.spec.title = "Figure 5: additional memory ports (4 ports)";
  fig5.spec.base = wide_config();
  fig5.spec.base.mem_port_count = 4;
  fig5.spec.models = {sim::Model::kBaseline, sim::Model::kReese,
                      sim::Model::kReese1Alu, sim::Model::kReese2Alu};
  figures.push_back(fig5);

  const struct {
    const char* key;
    const char* label;
    u32 ruu;
    bool extra_fus;
  } kPoints[] = {
      {"fig7_ruu64", "Figure 7: RUU=64", 64, false},
      {"fig7_ruu64_fus", "Figure 7: RUU=64 + extra FUs", 64, true},
      {"fig7_ruu256", "Figure 7: RUU=256", 256, false},
      {"fig7_ruu256_fus", "Figure 7: RUU=256 + extra FUs", 256, true},
  };
  for (const auto& point : kPoints) {
    Figure fig{point.key, {}};
    fig.spec.title = point.label;
    fig.spec.base = fig7_config(point.ruu, point.extra_fus);
    fig.spec.models = {sim::Model::kBaseline, sim::Model::kReese,
                       sim::Model::kReese2Alu};
    figures.push_back(fig);
  }
  return figures;
}

void write_figure(json::Writer& w, const Figure& figure,
                  const sim::ExperimentResult& r, double wall_seconds) {
  w.begin_object().key("name").value(figure.name);
  w.key("title").value(r.spec.title);
  w.key("workloads").begin_array(json::Layout::kInline);
  for (const std::string& workload : r.spec.workloads) w.value(workload);
  w.end();
  w.key("models").begin_array(json::Layout::kInline);
  for (sim::Model model : r.spec.models) w.value(sim::model_slug(model));
  w.end();
  w.key("ipc").begin_array();
  for (const std::vector<double>& row : r.ipc) {
    w.begin_array(json::Layout::kInline);
    for (double ipc : row) w.fixed(ipc, 6);
    w.end();
  }
  w.end();
  w.key("average").begin_array(json::Layout::kInline);
  for (usize m = 0; m < r.spec.models.size(); ++m) w.fixed(r.average(m), 6);
  w.end();
  w.key("overhead_pct").begin_array(json::Layout::kInline);
  for (usize m = 0; m < r.spec.models.size(); ++m) {
    w.fixed(r.overhead_pct(m), 3);
  }
  w.end();
  w.key("wall_seconds").fixed(wall_seconds, 3).end();
}

}  // namespace

int main(int argc, char** argv) {
  u64 instructions = kPaperBudget;
  std::string out_path = "BENCH_overnight.json";
  bool no_checkpoint = false;
  u32 jobs = 0;
  sim::CheckpointOptions checkpoint;
  FlagParser flags;
  flags.add("--instructions", &instructions);
  flags.add("--out", &out_path);
  flags.add("--no-checkpoint", &no_checkpoint);
  sim::add_grid_flags(&flags, &jobs, &checkpoint);
  if (!flags.parse_or_report(argc, argv)) return 2;

  if (no_checkpoint) {
    checkpoint = sim::CheckpointOptions{};
  } else {
    if (checkpoint.dir.empty()) {
      checkpoint.dir = "overnight-ckpt";
      checkpoint.resume = true;  // rerunning the target continues the night
    }
    if (checkpoint.interval == 0) {
      checkpoint.interval = std::min(kDefaultInterval, instructions / 2);
    }
  }

  std::vector<Figure> figures = figure_set();
  std::printf("overnight: %zu figure grids at %llu instructions/cell "
              "(checkpoints: %s)\n",
              figures.size(), static_cast<unsigned long long>(instructions),
              checkpoint.dir.empty() ? "off" : checkpoint.dir.c_str());

  std::vector<sim::ExperimentResult> results;
  std::vector<double> walls;
  double total_wall = 0.0;
  for (Figure& figure : figures) {
    figure.spec.instructions = instructions;
    figure.spec.jobs = jobs;
    figure.spec.checkpoint = checkpoint;
    const auto start = std::chrono::steady_clock::now();
    const sim::ExperimentResult result = sim::run_experiment(figure.spec);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    total_wall += wall;
    std::fputs(result.table().c_str(), stdout);
    std::printf("  (%s: %.1fs wall)\n\n", figure.name.c_str(), wall);
    results.push_back(result);
    walls.push_back(wall);
  }

  // Figure 6 is the summary of figures 2-5: average IPC per hardware
  // variation, assembled from the grids already run.
  const char* kVariation[] = {"None", "RUU,LSQ 2X", "Ex.Q 2X", "MemPorts"};
  std::printf("Figure 6: summary of results\n");
  for (usize f = 0; f < 4; ++f) {
    std::printf("  %-12s", kVariation[f]);
    for (usize m = 0; m < results[f].spec.models.size(); ++m) {
      std::printf("%14.3f", results[f].average(m));
    }
    std::printf("\n");
  }

  const char* sha = std::getenv("GITHUB_SHA");
  if (sha == nullptr || *sha == '\0') sha = std::getenv("REESE_GIT_SHA");
  std::string json;
  json::Writer w(&json);
  w.begin_object().key("schema").value("reese-overnight-v1");
  w.key("instructions").value(instructions);
  w.key("git_sha").value(sha == nullptr ? "" : sha);
  w.key("total_wall_seconds").fixed(total_wall, 3);
  w.key("fig6_summary").begin_array();
  for (usize f = 0; f < 4; ++f) {
    w.begin_object(json::Layout::kInline).key("variation").value(kVariation[f]);
    w.key("average").begin_array(json::Layout::kInline);
    for (usize m = 0; m < results[f].spec.models.size(); ++m) {
      w.fixed(results[f].average(m), 6);
    }
    w.end().end();
  }
  w.end();
  w.key("figures").begin_array();
  for (usize f = 0; f < figures.size(); ++f) {
    write_figure(w, figures[f], results[f], walls[f]);
  }
  w.end().end();
  json += '\n';

  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "overnight: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::fprintf(stderr, "overnight: wrote %s (%.1fs total)\n", out_path.c_str(),
               total_wall);
  return 0;
}
