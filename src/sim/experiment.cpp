#include "sim/experiment.h"

#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"
#include "common/snapshot.h"
#include "common/strutil.h"
#include "sim/simulator.h"

namespace reese::sim {

const char* model_name(Model model) {
  switch (model) {
    case Model::kBaseline: return "Baseline";
    case Model::kReese: return "REESE";
    case Model::kReese1Alu: return "R+1ALU";
    case Model::kReese2Alu: return "R+2ALU";
    case Model::kReese2Alu1Mult: return "R+2ALU+1Mult";
  }
  return "?";
}

const char* model_slug(Model model) {
  switch (model) {
    case Model::kBaseline: return "baseline";
    case Model::kReese: return "reese";
    case Model::kReese1Alu: return "reese_1alu";
    case Model::kReese2Alu: return "reese_2alu";
    case Model::kReese2Alu1Mult: return "reese_2alu_1mult";
  }
  return "?";
}

bool model_from_slug(const std::string& slug, Model* out) {
  for (Model model : standard_models()) {
    if (slug == model_slug(model)) {
      *out = model;
      return true;
    }
  }
  return false;
}

const std::vector<Model>& standard_models() {
  static const auto* kModels = new std::vector<Model>{
      Model::kBaseline, Model::kReese, Model::kReese1Alu, Model::kReese2Alu,
      Model::kReese2Alu1Mult};
  return *kModels;
}

core::CoreConfig apply_model(core::CoreConfig base, Model model) {
  switch (model) {
    case Model::kBaseline: return base;
    case Model::kReese: return core::with_reese(base, 0, 0);
    case Model::kReese1Alu: return core::with_reese(base, 1, 0);
    case Model::kReese2Alu: return core::with_reese(base, 2, 0);
    case Model::kReese2Alu1Mult: return core::with_reese(base, 2, 1);
  }
  return base;
}

double ExperimentResult::average(usize model_index) const {
  if (ipc.empty()) return 0.0;
  double sum = 0.0;
  for (const std::vector<double>& row : ipc) sum += row[model_index];
  return sum / static_cast<double>(ipc.size());
}

double ExperimentResult::overhead_pct(usize model_index) const {
  assert(!spec.models.empty() && spec.models[0] == Model::kBaseline);
  const double base = average(0);
  if (base == 0.0) return 0.0;
  return 100.0 * (base - average(model_index)) / base;
}

std::string ExperimentResult::table() const {
  std::string out = spec.title + "\n";
  out += format("  (config: %s; %llu instructions/run)\n",
                spec.base.summary().c_str(),
                static_cast<unsigned long long>(spec.instructions));

  out += format("  %-10s", "workload");
  for (Model model : spec.models) out += format("%14s", model_name(model));
  out += "\n";

  for (usize w = 0; w < spec.workloads.size(); ++w) {
    out += format("  %-10s", spec.workloads[w].c_str());
    for (usize m = 0; m < spec.models.size(); ++m) {
      out += format("%14.3f", ipc[w][m]);
    }
    out += "\n";
  }

  out += format("  %-10s", "AV");
  for (usize m = 0; m < spec.models.size(); ++m) {
    out += format("%14.3f", average(m));
  }
  out += "\n";

  if (!spec.models.empty() && spec.models[0] == Model::kBaseline) {
    out += format("  %-10s", "vs base");
    out += format("%14s", "-");
    for (usize m = 1; m < spec.models.size(); ++m) {
      out += format("%13.1f%%", -overhead_pct(m));
    }
    out += "\n";
  }
  return out;
}

std::string ExperimentResult::csv() const {
  std::string out = "workload,model,ipc,ipc_stdev\n";
  for (usize w = 0; w < spec.workloads.size(); ++w) {
    for (usize m = 0; m < spec.models.size(); ++m) {
      out += format("%s,%s,%.6f,%.6f\n", spec.workloads[w].c_str(),
                    model_name(spec.models[m]), ipc[w][m], ipc_stdev[w][m]);
    }
  }
  return out;
}

std::string ExperimentResult::json() const {
  std::string out;
  json::Writer w(&out);
  w.begin_object().key("schema").value("reese-experiment-v1");
  w.key("title").value(spec.title);
  w.key("instructions").value(spec.instructions);
  w.key("seed").value(spec.seed);
  w.key("extra_seeds").begin_array(json::Layout::kInline);
  for (u64 seed : spec.extra_seeds) w.value(seed);
  w.end();
  w.key("workloads").begin_array(json::Layout::kInline);
  for (const std::string& workload : spec.workloads) w.value(workload);
  w.end();
  w.key("models").begin_array(json::Layout::kInline);
  for (Model model : spec.models) w.value(model_slug(model));
  w.end();
  const auto write_matrix =
      [&w](const char* key, const std::vector<std::vector<double>>& matrix) {
        w.key(key).begin_array();
        for (const std::vector<double>& row : matrix) {
          w.begin_array(json::Layout::kInline);
          for (double value : row) w.fixed(value, 6);
          w.end();
        }
        w.end();
      };
  write_matrix("ipc", ipc);
  write_matrix("ipc_stdev", ipc_stdev);
  w.key("average").begin_array(json::Layout::kInline);
  for (usize m = 0; m < spec.models.size(); ++m) w.fixed(average(m), 6);
  w.end();
  w.key("cells").begin_array();
  for (const auto& row : cells) {
    w.begin_array();
    for (const std::vector<ExperimentCell>& seeds : row) {
      w.begin_array(json::Layout::kInline);
      for (const ExperimentCell& cell : seeds) {
        w.begin_object(json::Layout::kInline).key("ipc").fixed(cell.ipc, 6);
        w.key("cycles").value(cell.cycles);
        w.key("committed").value(cell.committed).end();
      }
      w.end();
    }
    w.end();
  }
  w.end().end();
  out += '\n';
  return out;
}

namespace {

/// "Figure 2: initial comparison" -> "figure_2_initial_comparison".
std::string slugify(const std::string& title) {
  std::string slug;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? "experiment" : slug;
}

void maybe_write_csv(const ExperimentResult& result) {
  const char* dir = std::getenv("REESE_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path =
      std::string(dir) + "/" + slugify(result.spec.title) + ".csv";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "experiment: cannot write %s\n", path.c_str());
    return;
  }
  const std::string csv = result.csv();
  std::fwrite(csv.data(), 1, csv.size(), file);
  std::fclose(file);
}

// A finished cell's ".done" record: the budget and workload seed it ran
// with (a record from a differently-shaped run is ignored), then the cell.
constexpr u32 kCellRecordTag = 0x43454C4C;  // "CELL"

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec_in) {
  ExperimentSpec spec = spec_in;
  if (spec.models.empty()) spec.models = standard_models();
  if (spec.workloads.empty()) spec.workloads = workloads::spec_like_names();
  if (spec.instructions == 0) spec.instructions = default_instruction_budget();
  const CheckpointOptions& ckpt = spec.checkpoint;

  std::vector<u64> seeds = {spec.seed};
  seeds.insert(seeds.end(), spec.extra_seeds.begin(),
               spec.extra_seeds.end());
  const usize model_count = spec.models.size();

  ExperimentResult result;
  result.spec = spec;
  result.ipc.assign(spec.workloads.size(),
                    std::vector<double>(spec.models.size(), 0.0));
  result.ipc_stdev.assign(spec.workloads.size(),
                          std::vector<double>(spec.models.size(), 0.0));
  result.cells.assign(
      spec.workloads.size(),
      std::vector<std::vector<ExperimentCell>>(
          spec.models.size(), std::vector<ExperimentCell>(seeds.size())));

  // Cells enumerate workload -> model -> seed. Each is an independent
  // simulation: it builds its own workload, memory image and pipeline, and
  // writes only its own result.cells slot, so the matrix is identical no
  // matter how many workers ran it or in what order cells finished.
  const auto run_cell = [&](usize index) -> u64 {
    const usize w = index / (model_count * seeds.size());
    const usize m = index / seeds.size() % model_count;
    const usize s = index % seeds.size();
    const u64 seed = seeds[s];
    ExperimentCell& cell = result.cells[w][m][s];

    // Cell checkpoint files: "<slug>-wW-mM-sS.done" holds a finished
    // cell's result, "<...>.snap" a mid-cell pipeline snapshot.
    std::string cell_base;
    if (!ckpt.dir.empty()) {
      cell_base = ckpt.dir + "/" + slugify(spec.title) +
                  format("-w%zu-m%zu-s%zu", w, m, s);
    }
    ExperimentCell loaded;
    if (ckpt.resume && !cell_base.empty() &&
        load_done_record(cell_base + ".done", kCellRecordTag,
                         [&](SnapshotReader* reader) {
                           if (reader->get_u64() != spec.instructions ||
                               reader->get_u64() != seed) {
                             return false;
                           }
                           loaded.stop = static_cast<core::StopReason>(
                               reader->get_u32());
                           loaded.ipc = reader->get_f64();
                           loaded.cycles = reader->get_u64();
                           loaded.committed = reader->get_u64();
                           return true;
                         })) {
      cell = loaded;
      return cell.committed;
    }

    workloads::WorkloadOptions options;
    options.seed = seed;
    options.iterations = 0;  // run forever; budget bounds the simulation
    auto workload = workloads::make_workload(spec.workloads[w], options);
    if (!workload.ok()) {
      std::fprintf(stderr, "experiment: %s\n",
                   workload.error().to_string().c_str());
      std::exit(1);
    }
    Simulator simulator(std::move(workload).value(),
                        apply_model(spec.base, spec.models[m]));
    SimResult sim_result;
    if (!cell_base.empty()) {
      std::string error;
      sim_result =
          run_with_checkpoints(&simulator, spec.instructions, ckpt.interval,
                               cell_base + ".snap", ckpt.resume, &error);
      if (!error.empty()) {
        std::fprintf(stderr, "experiment: %s\n", error.c_str());
        std::exit(1);
      }
    } else {
      sim_result = simulator.run(spec.instructions);
    }
    if (sim_result.stop != core::StopReason::kCommitTarget) {
      std::fprintf(stderr,
                   "experiment: %s/%s stopped early (%s) after %llu insts, "
                   "%llu cycles\n",
                   spec.workloads[w].c_str(), model_name(spec.models[m]),
                   core::stop_reason_name(sim_result.stop),
                   static_cast<unsigned long long>(sim_result.committed),
                   static_cast<unsigned long long>(sim_result.cycles));
      if (sim_result.stop == core::StopReason::kCycleLimit) {
        std::fprintf(stderr,
                     "experiment: cycle limit hit at cycle %llu — raise it "
                     "via REESE_SIM_CYCLE_LIMIT\n",
                     static_cast<unsigned long long>(sim_result.cycles));
      }
      std::exit(1);
    }
    cell.ipc = sim_result.ipc;
    cell.cycles = sim_result.cycles;
    cell.committed = sim_result.committed;
    cell.stop = sim_result.stop;
    if (!cell_base.empty()) {
      save_done_record(cell_base + ".done", kCellRecordTag, "experiment",
                       [&](SnapshotWriter* writer) {
                         writer->put_u64(spec.instructions);
                         writer->put_u64(seed);
                         writer->put_u32(static_cast<u32>(cell.stop));
                         writer->put_f64(cell.ipc);
                         writer->put_u64(cell.cycles);
                         writer->put_u64(cell.committed);
                       });
      std::remove((cell_base + ".snap").c_str());
    }
    return cell.committed;
  };
  result.cancelled = run_grid(spec, "experiment",
                              spec.workloads.size() * model_count * seeds.size(),
                              run_cell);

  for (usize w = 0; w < spec.workloads.size(); ++w) {
    for (usize m = 0; m < spec.models.size(); ++m) {
      double sum = 0.0;
      for (const ExperimentCell& cell : result.cells[w][m]) sum += cell.ipc;
      const double mean = sum / static_cast<double>(seeds.size());
      result.ipc[w][m] = mean;
      if (seeds.size() > 1) {
        double variance = 0.0;
        for (const ExperimentCell& cell : result.cells[w][m]) {
          variance += (cell.ipc - mean) * (cell.ipc - mean);
        }
        variance /= static_cast<double>(seeds.size() - 1);
        result.ipc_stdev[w][m] = std::sqrt(variance);
      }
    }
  }

  if (result.cancelled) return result;  // incomplete matrix: no CSV export

  maybe_write_csv(result);
  return result;
}

}  // namespace reese::sim
