// Experiment grid runner: evaluates (workload x model) matrices and prints
// the tables behind the paper's figures.
//
// A "model" is one bar of the paper's figure groups:
//   Baseline            — no REESE
//   REESE               — time redundancy, no spare hardware
//   REESE+1 ALU         — one spare integer ALU
//   REESE+2 ALU         — two spare integer ALUs
//   REESE+2 ALU+1 Mult  — plus a spare integer multiplier/divider
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "sim/checkpoint.h"
#include "sim/progress.h"
#include "workloads/workload.h"

namespace reese::sim {

enum class Model : u8 {
  kBaseline,
  kReese,
  kReese1Alu,
  kReese2Alu,
  kReese2Alu1Mult,
};

const char* model_name(Model model);

/// Stable machine-readable name ("baseline", "reese", "reese_1alu",
/// "reese_2alu", "reese_2alu_1mult") — the vocabulary of the service's
/// JSON specs and reports (DESIGN.md §11).
const char* model_slug(Model model);

/// Inverse of model_slug; false on an unknown name.
bool model_from_slug(const std::string& slug, Model* out);

/// The paper's five standard bars, in figure order.
const std::vector<Model>& standard_models();

/// Apply a model to a figure's base (baseline) configuration.
core::CoreConfig apply_model(core::CoreConfig base, Model model);

struct ExperimentSpec {
  std::string title;                    ///< e.g. "Figure 2: ..."
  core::CoreConfig base;                ///< baseline hardware for this figure
  std::vector<Model> models;            ///< bars (default: the standard five)
  std::vector<std::string> workloads;   ///< default: the six spec-like names
  u64 instructions = 0;                 ///< 0 = default_instruction_budget()
  u64 seed = 0x5EED5EED;
  /// Additional workload-data seeds; when non-empty, every cell is run
  /// once per seed (including `seed`) and the matrix holds the mean, with
  /// the sample standard deviation in ExperimentResult::ipc_stdev.
  std::vector<u64> extra_seeds;
  /// Worker threads for the grid. 0 = auto: $REESE_JOBS, else hardware
  /// concurrency. 1 = run every cell inline on the calling thread.
  u32 jobs = 0;
  /// Optional cooperative cancellation, polled once per grid cell before
  /// the cell's simulation starts (cells are sub-second at service
  /// budgets, so this is the natural preemption granularity). When it
  /// returns true, the remaining cells are skipped and the result carries
  /// `cancelled = true` with the untouched cells zero-filled. Used by the
  /// service's per-job wall-clock timeout and SIGTERM drain.
  std::function<bool()> cancel;
  /// Optional per-cell progress callback (see sim/progress.h for the
  /// threading contract). Observes only — results are bit-identical with
  /// or without a listener.
  ProgressFn progress;
  /// Optional metrics registry: each finished cell bumps the
  /// reese_grid_cells_completed_total and
  /// reese_grid_committed_instructions_total counters (kind="experiment").
  /// Must outlive the run.
  metrics::Registry* metrics = nullptr;
  /// Checkpoint policy (DESIGN.md §14). When `dir` is set, every finished
  /// cell writes a ".done" record there and, with a non-zero `interval`,
  /// long cells snapshot mid-run every `interval` committed instructions;
  /// with `resume`, done cells are skipped and partial cells restored, so
  /// a killed grid continues bit-identically (the interval is part of the
  /// result's identity — see sim/checkpoint.h). Left default, nothing is
  /// checkpointed.
  CheckpointOptions checkpoint;
};

/// Raw outcome of one grid cell's simulation (one workload/model/seed run).
struct ExperimentCell {
  double ipc = 0.0;
  Cycle cycles = 0;
  u64 committed = 0;
  core::StopReason stop = core::StopReason::kCommitTarget;

  bool operator==(const ExperimentCell&) const = default;
};

struct ExperimentResult {
  ExperimentSpec spec;
  /// ipc[workload_index][model_index] — mean over seeds
  std::vector<std::vector<double>> ipc;
  /// Sample standard deviation over seeds (zero when a single seed ran).
  std::vector<std::vector<double>> ipc_stdev;
  /// Per-cell raw samples: cells[workload_index][model_index][seed_index].
  /// Deterministic regardless of how many workers ran the grid — the
  /// parallel-vs-sequential bit-identity test compares these directly.
  std::vector<std::vector<std::vector<ExperimentCell>>> cells;
  /// True when ExperimentSpec::cancel fired before every cell ran; the
  /// matrix is then incomplete and must not be reported as a result.
  bool cancelled = false;

  /// Arithmetic mean over workloads for one model (the figures' AV bars).
  double average(usize model_index) const;
  /// REESE-vs-baseline IPC deficit in percent for one model (paper's
  /// headline "11-16%" / "8%" numbers). Requires models[0] == kBaseline.
  double overhead_pct(usize model_index) const;

  /// Render the figure's data as a table (workload rows, model columns,
  /// AV row), matching the bar groups in the paper.
  std::string table() const;

  /// Machine-readable CSV: workload,model,ipc,ipc_stdev — one row per
  /// cell, ready for plotting.
  std::string csv() const;

  /// Machine-readable report (schema "reese-experiment-v1"): the resolved
  /// spec, the ipc/ipc_stdev matrices, per-model averages, and the raw
  /// per-seed cells. Worker count is deliberately omitted — the matrix is
  /// jobs-invariant, so two runs of the same spec serialize identically.
  std::string json() const;
};

/// Run the grid. Independent (workload, model, seed) cells are fanned
/// across a thread pool (see ExperimentSpec::jobs); every cell owns its
/// Pipeline/memory/RNG and writes only its own result slot, so the matrix
/// is bit-identical to a sequential run. When the environment variable
/// REESE_CSV_DIR names a directory, the result is also written there as
/// "<slugified title>.csv".
ExperimentResult run_experiment(const ExperimentSpec& spec);

}  // namespace reese::sim
