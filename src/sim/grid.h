// The one grid runner (DESIGN.md §9): fans a grid of independent
// simulation cells out over the calling thread or a thread pool.
//
// run_experiment and run_campaign build and simulate their own cells and
// aggregate their own matrices; everything else about a grid lives here
// and nowhere else — creating the checkpoint directory, polling `cancel`
// before each cell, counting finished cells and committed instructions
// into the reese_grid_* counters and the ProgressFn, choosing between a
// plain loop and ThreadPool::parallel_for, and the ".done" record framing
// that lets a killed grid resume (DESIGN.md §14).
#pragma once

#include <functional>
#include <string>

#include "common/metrics.h"
#include "sim/checkpoint.h"
#include "sim/progress.h"

namespace reese {
class FlagParser;
class SnapshotReader;
class SnapshotWriter;
}  // namespace reese

namespace reese::sim {

/// The grid knobs both runners share; ExperimentSpec and CampaignSpec
/// inherit them.
struct GridOptions {
  /// Worker threads. 0 = auto: $REESE_JOBS, else hardware concurrency.
  /// 1 = run every cell on the calling thread in enumeration order.
  u32 jobs = 0;
  /// Optional cooperative cancellation, polled once per cell before the
  /// cell starts (cells are sub-second at service budgets, so this is the
  /// natural preemption granularity). Once it returns true the remaining
  /// cells are skipped and the result carries `cancelled = true` with the
  /// untouched cells zero-filled. Used by the service's per-job wall-clock
  /// timeout and SIGTERM drain.
  std::function<bool()> cancel;
  /// Optional per-cell progress callback (see sim/progress.h for the
  /// threading contract). Observes only — results are bit-identical with
  /// or without a listener.
  ProgressFn progress;
  /// Optional metrics registry: each finished cell bumps
  /// reese_grid_cells_completed_total and
  /// reese_grid_committed_instructions_total{kind="experiment"|"campaign"}.
  /// Must outlive the run.
  metrics::Registry* metrics = nullptr;
  /// Checkpoint policy (DESIGN.md §14). When `dir` is set, every finished
  /// cell writes a ".done" record there; with `resume`, cells whose record
  /// reads back are skipped. Left default, nothing is checkpointed.
  CheckpointOptions checkpoint;
};

/// Register the grid-runner flags that the figure benches and
/// fault_coverage share: --jobs N, --checkpoint-dir D,
/// --checkpoint-interval N and --resume-from D (the directory plus
/// resume = true).
void add_grid_flags(FlagParser* flags, GridOptions* grid);

/// Run cells 0 .. cell_count - 1 under `grid`. `run_cell(i)` simulates (or
/// resumes) cell i, writes only its own result slot and returns the cell's
/// committed instructions. With one worker the cells run in index order on
/// the calling thread; otherwise they are claimed dynamically by a
/// ThreadPool. `kind` labels the reese_grid_* counters and prefixes
/// diagnostics. Returns true when `grid.cancel` fired before every cell ran.
bool run_grid(const GridOptions& grid, const char* kind, usize cell_count,
              const std::function<u64(usize)>& run_cell);

/// Write a finished cell's ".done" record: one `tag` section whose payload
/// `write` fills (the runner's identity fields, then the cell). A write
/// failure costs resumability only, so it is reported on stderr, prefixed
/// with `kind`.
void save_done_record(const std::string& path, u32 tag, const char* kind,
                      const std::function<void(SnapshotWriter*)>& write);

/// Read a ".done" record back. True only when the file is intact, carries
/// `tag`, `read` accepts it (it returns false on an identity mismatch — a
/// record from a differently-shaped run is ignored and the cell re-runs,
/// never misused) and the payload is consumed exactly.
bool load_done_record(const std::string& path, u32 tag,
                      const std::function<bool(SnapshotReader*)>& read);

}  // namespace reese::sim
