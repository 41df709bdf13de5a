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

#include "common/diag.h"
#include "common/flags.h"
#include "common/strutil.h"
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

std::string figure_json(const Figure& figure, const sim::ExperimentResult& r,
                        double wall_seconds) {
  std::string out = "    {\n";
  out += format("      \"name\": \"%s\",\n", figure.name.c_str());
  out += format("      \"title\": \"%s\",\n",
                json_escape(r.spec.title).c_str());
  out += "      \"workloads\": [";
  for (usize w = 0; w < r.spec.workloads.size(); ++w) {
    out += format("%s\"%s\"", w == 0 ? "" : ", ",
                  json_escape(r.spec.workloads[w]).c_str());
  }
  out += "],\n";
  out += "      \"models\": [";
  for (usize m = 0; m < r.spec.models.size(); ++m) {
    out += format("%s\"%s\"", m == 0 ? "" : ", ",
                  sim::model_slug(r.spec.models[m]));
  }
  out += "],\n";
  out += "      \"ipc\": [\n";
  for (usize w = 0; w < r.ipc.size(); ++w) {
    out += "        [";
    for (usize m = 0; m < r.ipc[w].size(); ++m) {
      out += format("%s%.6f", m == 0 ? "" : ", ", r.ipc[w][m]);
    }
    out += format("]%s\n", w + 1 < r.ipc.size() ? "," : "");
  }
  out += "      ],\n";
  out += "      \"average\": [";
  for (usize m = 0; m < r.spec.models.size(); ++m) {
    out += format("%s%.6f", m == 0 ? "" : ", ", r.average(m));
  }
  out += "],\n";
  out += "      \"overhead_pct\": [";
  for (usize m = 0; m < r.spec.models.size(); ++m) {
    out += format("%s%.3f", m == 0 ? "" : ", ", r.overhead_pct(m));
  }
  out += "],\n";
  out += format("      \"wall_seconds\": %.3f\n", wall_seconds);
  out += "    }";
  return out;
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

  std::string figures_json;
  std::vector<sim::ExperimentResult> results;
  double total_wall = 0.0;
  for (usize f = 0; f < figures.size(); ++f) {
    Figure& figure = figures[f];
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
    figures_json += figure_json(figure, result, wall);
    figures_json += f + 1 < figures.size() ? ",\n" : "\n";
    results.push_back(result);
  }

  // Figure 6 is the summary of figures 2-5: average IPC per hardware
  // variation, assembled from the grids already run.
  const char* kVariation[] = {"None", "RUU,LSQ 2X", "Ex.Q 2X", "MemPorts"};
  std::printf("Figure 6: summary of results\n");
  std::string fig6 = "  \"fig6_summary\": [\n";
  for (usize f = 0; f < 4; ++f) {
    const sim::ExperimentResult& r = results[f];
    std::printf("  %-12s", kVariation[f]);
    fig6 += format("    {\"variation\": \"%s\", \"average\": [", kVariation[f]);
    for (usize m = 0; m < r.spec.models.size(); ++m) {
      std::printf("%14.3f", r.average(m));
      fig6 += format("%s%.6f", m == 0 ? "" : ", ", r.average(m));
    }
    std::printf("\n");
    fig6 += format("]}%s\n", f + 1 < 4 ? "," : "");
  }
  fig6 += "  ],\n";

  std::string json = "{\n";
  json += "  \"schema\": \"reese-overnight-v1\",\n";
  json += format("  \"instructions\": %llu,\n",
                 static_cast<unsigned long long>(instructions));
  const char* sha = std::getenv("GITHUB_SHA");
  if (sha == nullptr || *sha == '\0') sha = std::getenv("REESE_GIT_SHA");
  json += format("  \"git_sha\": \"%s\",\n",
                 json_escape(sha == nullptr ? "" : sha).c_str());
  json += format("  \"total_wall_seconds\": %.3f,\n", total_wall);
  json += fig6;
  json += "  \"figures\": [\n" + figures_json + "  ]\n}\n";

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
