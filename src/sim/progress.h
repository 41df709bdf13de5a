// Cooperative progress reporting for the grid runners (DESIGN.md §12).
//
// run_grid (sim/grid.h), which runs the cells of both run_experiment and
// run_campaign, is the only caller of GridOptions::progress: once per
// finished cell, right after it bumps the reese_grid_* counters. The
// callback only observes — it cannot perturb the simulation, so reported
// matrices stay bit-identical with or without a listener installed. The
// service (sim/service.h) uses this to drive GET /v1/jobs/<id>/progress
// while a job is running.
#pragma once

#include <functional>

#include "common/types.h"

namespace reese::sim {

struct ProgressUpdate {
  u64 cells_done = 0;    ///< grid cells finished so far
  u64 cells_total = 0;   ///< cells in the whole grid
  u64 committed = 0;     ///< committed instructions across finished cells
};

/// With one worker, invoked on the calling thread in enumeration order
/// with cells_done running 1..N. Otherwise invoked from whichever worker
/// thread finished the cell, so calls arrive concurrently and possibly
/// out of order (a worker that finished cell 7 may report after the one
/// that finished cell 8). Implementations must be thread-safe and should
/// merge updates as monotonic maxima. Keep it cheap: the worker blocks
/// until it returns.
using ProgressFn = std::function<void(const ProgressUpdate&)>;

/// Per-shard progress from the fleet coordinator (DESIGN.md §17). The
/// coordinator reports each shard's lifecycle as it dispatches, polls and
/// merges; the service folds these into GET /v1/jobs/<id>/progress. A
/// shard whose worker dies is reported "re-dispatched" and then runs again
/// on another worker — consumers must merge cells_done/committed as
/// monotonic maxima so the rollup never regresses across re-dispatch.
struct ShardProgressUpdate {
  usize shard_index = 0;   ///< index into the split order
  u32 replica_begin = 0;   ///< global replica range [begin, begin+replicas)
  u32 replicas = 0;
  /// queued | dispatched | running | re-dispatched | merged.
  const char* state = "queued";
  std::string worker;      ///< "host:port" currently running the shard
  u64 cells_done = 0;      ///< cells finished on the current attempt
  u64 cells_total = 0;
  u64 committed = 0;
  double kips = 0.0;       ///< worker-reported simulation rate
  u32 dispatches = 0;      ///< attempts so far (>1 after re-dispatch)
};

/// Same threading contract as ProgressFn: invoked from coordinator worker
/// threads concurrently; must be thread-safe and cheap.
using ShardProgressFn = std::function<void(const ShardProgressUpdate&)>;

}  // namespace reese::sim
