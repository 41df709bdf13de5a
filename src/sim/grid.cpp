#include "sim/grid.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/flags.h"
#include "common/snapshot.h"
#include "common/thread_pool.h"

namespace reese::sim {

void add_grid_flags(FlagParser* flags, GridOptions* grid) {
  flags->add("--jobs", &grid->jobs);
  flags->add("--checkpoint-dir", &grid->checkpoint.dir);
  flags->add("--checkpoint-interval", &grid->checkpoint.interval);
  flags->add("--resume-from", &grid->checkpoint.dir, &grid->checkpoint.resume);
}

bool run_grid(const GridOptions& grid, const char* kind, usize cell_count,
              const std::function<u64(usize)>& run_cell) {
  if (!grid.checkpoint.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(grid.checkpoint.dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s: cannot create checkpoint dir %s: %s\n", kind,
                   grid.checkpoint.dir.c_str(), ec.message().c_str());
      std::exit(1);
    }
  }

  // Progress accounting observes the grid without perturbing it; the grid
  // counters live in the caller's registry so a long-lived service
  // accumulates across jobs.
  metrics::Counter* cells_counter = nullptr;
  metrics::Counter* committed_counter = nullptr;
  if (grid.metrics != nullptr) {
    cells_counter = grid.metrics->counter("reese_grid_cells_completed_total",
                                          {{"kind", kind}},
                                          "Grid cells finished");
    committed_counter = grid.metrics->counter(
        "reese_grid_committed_instructions_total", {{"kind", kind}},
        "Instructions committed across grid cells");
  }
  std::atomic<u64> cells_done{0};
  std::atomic<u64> committed_total{0};
  std::atomic<bool> cancelled{false};

  const auto run_one = [&](usize index) {
    if (grid.cancel &&
        (cancelled.load(std::memory_order_relaxed) || grid.cancel())) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    const u64 committed = run_cell(index);
    const u64 done = cells_done.fetch_add(1, std::memory_order_relaxed) + 1;
    const u64 committed_now =
        committed_total.fetch_add(committed, std::memory_order_relaxed) +
        committed;
    if (cells_counter != nullptr) cells_counter->inc();
    if (committed_counter != nullptr) committed_counter->inc(committed);
    if (grid.progress) {
      grid.progress({done, static_cast<u64>(cell_count), committed_now});
    }
  };

  const u32 workers = resolve_job_count(grid.jobs);
  if (workers <= 1 || cell_count <= 1) {
    // Reference path: plain sequential loop on the calling thread.
    for (usize i = 0; i < cell_count; ++i) run_one(i);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(cell_count, run_one);
  }
  return cancelled.load(std::memory_order_relaxed);
}

void save_done_record(const std::string& path, u32 tag, const char* kind,
                      const std::function<void(SnapshotWriter*)>& write) {
  SnapshotWriter writer;
  writer.put_section(tag);
  write(&writer);
  std::string error;
  if (!writer.write_file(path, kSnapshotFormatVersion, &error)) {
    std::fprintf(stderr, "%s: %s\n", kind, error.c_str());
  }
}

bool load_done_record(const std::string& path, u32 tag,
                      const std::function<bool(SnapshotReader*)>& read) {
  SnapshotReader reader;
  return reader.open_file(path, kSnapshotFormatVersion) &&
         reader.expect_section(tag) && read(&reader) && reader.ok() &&
         reader.at_end();
}

}  // namespace reese::sim
