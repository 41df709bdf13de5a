#include "sim/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/snapshot.h"

namespace reese::sim {

namespace {

constexpr u32 kTagMeta = 0x4D455441;  // "META"

bool file_exists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

}  // namespace

u64 snapshot_fingerprint(const std::string& workload_name,
                         const core::CoreConfig& config) {
  // The instruction budget is deliberately not part of the identity: a
  // resumed run may target a larger budget than the run that snapshotted.
  const std::string summary = config.summary();
  u64 hash = snapshot_fnv1a(
      reinterpret_cast<const u8*>(workload_name.data()), workload_name.size());
  return snapshot_fnv1a(reinterpret_cast<const u8*>(summary.data()),
                        summary.size(), hash);
}

bool save_snapshot(Simulator* simulator, const std::string& path,
                   std::string* error) {
  core::Pipeline& pipeline = simulator->pipeline();
  if (!pipeline.drain_to_barrier()) {
    if (error != nullptr)
      *error = "pipeline failed to drain to the snapshot barrier";
    return false;
  }
  SnapshotWriter writer;
  writer.put_section(kTagMeta);
  writer.put_u64(snapshot_fingerprint(simulator->workload().name,
                                      pipeline.config()));
  writer.put_string(simulator->workload().name);
  writer.put_u64(pipeline.stats().committed);
  pipeline.save_state(&writer);
  return writer.write_file(path, kSnapshotFormatVersion, error);
}

bool load_snapshot(Simulator* simulator, const std::string& path,
                   std::string* error) {
  core::Pipeline& pipeline = simulator->pipeline();
  SnapshotReader reader;
  if (!reader.open_file(path, kSnapshotFormatVersion)) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  if (!reader.expect_section(kTagMeta)) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  const u64 fingerprint = reader.get_u64();
  const std::string workload_name = reader.get_string();
  reader.get_u64();  // committed-at-save, informational
  if (reader.ok() &&
      fingerprint !=
          snapshot_fingerprint(simulator->workload().name, pipeline.config())) {
    if (error != nullptr)
      *error = "snapshot fingerprint mismatch: file was taken from workload '" +
               workload_name + "' with a different configuration";
    return false;
  }
  pipeline.load_state(&reader);
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  if (!reader.at_end()) {
    if (error != nullptr) *error = "snapshot has trailing payload bytes";
    return false;
  }
  return true;
}

void add_grid_flags(FlagParser* flags, u32* jobs,
                    CheckpointOptions* checkpoint) {
  flags->add("--jobs", jobs);
  flags->add("--checkpoint-dir", &checkpoint->dir);
  flags->add("--checkpoint-interval", &checkpoint->interval);
  flags->add("--resume-from", &checkpoint->dir, &checkpoint->resume);
}

SimResult run_with_checkpoints(Simulator* simulator, u64 instructions,
                               u64 interval, const std::string& path,
                               bool resume, std::string* error) {
  core::Pipeline& pipeline = simulator->pipeline();
  if (resume && !path.empty() && file_exists(path)) {
    if (!load_snapshot(simulator, path, error)) return SimResult{};
  }
  if (interval == 0 || path.empty()) return simulator->run(instructions);

  SimResult result;
  result.workload = simulator->workload().name;
  result.stop = core::StopReason::kCommitTarget;
  const Cycle cycle_limit = default_cycle_limit(instructions);
  while (pipeline.stats().committed < instructions) {
    const u64 boundary = std::min(
        instructions, (pipeline.stats().committed / interval + 1) * interval);
    result.stop = pipeline.run(boundary, cycle_limit);
    if (result.stop != core::StopReason::kCommitTarget) break;
    // The final boundary is not snapshotted: the run is complete, and the
    // drain would perturb the terminal stats relative to a plain run-out.
    if (pipeline.stats().committed >= instructions) break;
    std::string save_error;
    if (!save_snapshot(simulator, path, &save_error)) {
      // Best-effort: a failed snapshot write costs resumability, not
      // correctness, but the drain already happened so determinism vs a
      // same-interval reference run is preserved either way.
      std::fprintf(stderr, "reese: checkpoint save failed: %s\n",
                   save_error.c_str());
    }
  }
  result.ipc = pipeline.stats().ipc();
  result.cycles = pipeline.stats().cycles;
  result.committed = pipeline.stats().committed;
  return result;
}

}  // namespace reese::sim
