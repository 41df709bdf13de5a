// Simulation-level checkpoint/restore (DESIGN.md §14).
//
// A snapshot file (common/snapshot.h format) carries a META section — a
// fingerprint of (workload name, config summary) so a snapshot can only be
// restored into a simulator built from the same cell — followed by the
// pipeline's complete drained state (core/checkpoint.cpp).
//
// run_with_checkpoints() is the resumable replacement for Simulator::run:
// it cuts the instruction budget into `interval`-sized chunks, drains to
// the snapshot barrier after each full chunk, and rewrites the snapshot
// atomically. Draining is deterministic simulated execution, so two runs
// with the same interval commit the same boundaries and produce
// bit-identical results whether or not one of them was killed and resumed
// from the snapshot in between. (A checkpointed run is NOT bit-identical
// to an interval-0 run of the same cell — the drains add cycles — which is
// why the interval is part of the experiment spec, not a transparent knob.)
#pragma once

#include <string>

#include "sim/simulator.h"

namespace reese {
class FlagParser;
}  // namespace reese

namespace reese::sim {

/// Bumped whenever the snapshot payload layout changes; readers reject
/// files with any other version.
inline constexpr u32 kSnapshotFormatVersion = 1;

/// Identity hash binding a snapshot to the (workload, configuration) cell
/// it was taken from.
u64 snapshot_fingerprint(const std::string& workload_name,
                         const core::CoreConfig& config);

/// Drain the pipeline to the snapshot barrier and write its state to
/// `path` (atomic temp+rename). Returns false with a message in `*error`
/// on drain or I/O failure.
bool save_snapshot(Simulator* simulator, const std::string& path,
                   std::string* error);

/// Restore `path` into a freshly constructed simulator for the same
/// (workload, configuration) cell. Returns false with a message in
/// `*error` on missing/corrupt/truncated files, format-version mismatch,
/// or fingerprint mismatch.
bool load_snapshot(Simulator* simulator, const std::string& path,
                   std::string* error);

/// Checkpoint policy shared by the experiment and campaign runners.
struct CheckpointOptions {
  std::string dir;    ///< directory for snapshot/done files; empty = off
  u64 interval = 0;   ///< committed instructions between snapshots; 0 = only
                      ///< per-cell done records (campaign granularity)
  bool resume = false;  ///< pick up existing snapshots/done records in dir
};

/// Register the grid-runner flags that the figure benches and
/// fault_coverage share: --jobs N, --checkpoint-dir D,
/// --checkpoint-interval N and --resume-from D (the directory plus
/// resume = true). The values land in the caller's spec fields.
void add_grid_flags(FlagParser* flags, u32* jobs,
                    CheckpointOptions* checkpoint);

/// Resumable Simulator::run. When `resume` and `path` exists, restores it
/// first (a load failure sets `*error` and returns a zeroed result — the
/// caller must not treat that as a simulation outcome). Then runs to
/// `instructions` total committed, snapshotting to `path` every `interval`
/// committed instructions. `interval == 0` or an empty `path` degrades to
/// a plain run.
SimResult run_with_checkpoints(Simulator* simulator, u64 instructions,
                               u64 interval, const std::string& path,
                               bool resume, std::string* error);

}  // namespace reese::sim
