// Grid-runner contract (DESIGN.md §9, §12, §14), pinned for both runners.
// run_experiment and run_campaign fan independent cells out the same way:
// at one worker the cells run on the calling thread in enumeration order
// (workload→model→seed, variant→workload→replica) with one ProgressFn call
// per cell; a cancel stops the grid before the next cell; every finished
// cell bumps reese_grid_*{kind=...}; and a resumed grid recomputes any
// ".done" record it cannot read, rewriting it byte-identically.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/strutil.h"
#include "sim/campaign.h"
#include "sim/experiment.h"

namespace reese::sim {
namespace {

namespace fs = std::filesystem;

constexpr u64 kInstructions = 3'000;
constexpr usize kCells = 8;  // 2 x 2 x 2 in both runners

/// The grid fields every runner's spec carries.
struct Grid {
  u32 jobs = 1;
  std::function<bool()> cancel;
  ProgressFn progress;
  metrics::Registry* metrics = nullptr;
  CheckpointOptions checkpoint;

  template <typename Spec>
  void apply(Spec* spec) const {
    spec->jobs = jobs;
    spec->cancel = cancel;
    spec->progress = progress;
    spec->metrics = metrics;
    spec->checkpoint = checkpoint;
  }
};

/// One grid run, flattened to enumeration order.
struct GridRun {
  std::vector<u64> committed;  ///< per cell; 0 = the cell never ran
  bool cancelled = false;
  std::string report;          ///< the runner's JSON report
};

struct Runner {
  const char* name;
  const char* kind;                          ///< reese_grid_* "kind" label
  std::string (*done_file)(usize index);     ///< ".done" name of cell index
  GridRun (*run)(const Grid& grid);
};

GridRun run_experiment_grid(const Grid& grid) {
  ExperimentSpec spec;
  spec.title = "grid contract";
  spec.base = core::starting_config();
  spec.models = {Model::kBaseline, Model::kReese};
  spec.workloads = {"gcc", "li"};
  spec.instructions = kInstructions;
  spec.extra_seeds = {0xAB12};
  grid.apply(&spec);
  const ExperimentResult result = run_experiment(spec);
  GridRun run;
  run.cancelled = result.cancelled;
  for (const auto& models : result.cells) {
    for (const auto& seeds : models) {
      for (const ExperimentCell& cell : seeds) {
        run.committed.push_back(cell.committed);
      }
    }
  }
  run.report = result.json();
  return run;
}

std::string experiment_done_file(usize index) {
  return format("grid_contract-w%zu-m%zu-s%zu.done", index / 4, index / 2 % 2,
                index % 2);
}

GridRun run_campaign_grid(const Grid& grid) {
  CampaignSpec spec;
  const std::vector<CampaignVariant> standard = standard_campaign_variants();
  spec.variants = {standard[0], standard[3]};
  spec.workloads = {"gcc", "li"};
  spec.replicas = 2;
  spec.instructions = kInstructions;
  grid.apply(&spec);
  const CampaignResult result = run_campaign(spec);
  GridRun run;
  run.cancelled = result.cancelled;
  for (const auto& workloads : result.matrix.cells) {
    for (const auto& replicas : workloads) {
      for (const CampaignCell& cell : replicas) {
        run.committed.push_back(cell.committed);
      }
    }
  }
  run.report = result.json();
  return run;
}

std::string campaign_done_file(usize index) {
  return format("campaign-v%zu-w%zu-r%zu.done", index / 4, index / 2 % 2,
                index % 2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

class GridContract : public ::testing::TestWithParam<Runner> {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the cases as parallel processes.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = ::testing::TempDir() + "reese_grid_contract_" + name;
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string record(usize index) const {
    return dir_ + "/" + GetParam().done_file(index);
  }

  /// Indices of the cells whose ".done" record exists, in order.
  std::vector<usize> recorded_cells() const {
    std::vector<usize> cells;
    for (usize i = 0; i < kCells; ++i) {
      if (fs::exists(record(i))) cells.push_back(i);
    }
    return cells;
  }

  std::string dir_;
};

std::vector<usize> first_cells(usize count) {
  std::vector<usize> cells(count);
  for (usize i = 0; i < count; ++i) cells[i] = i;
  return cells;
}

TEST_P(GridContract, OneWorkerReportsEachCellInEnumerationOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<ProgressUpdate> updates;
  std::vector<std::vector<usize>> recorded_at_update;
  Grid grid;
  grid.jobs = 1;
  grid.checkpoint.dir = dir_;
  grid.progress = [&](const ProgressUpdate& update) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    updates.push_back(update);
    recorded_at_update.push_back(recorded_cells());
  };
  const GridRun run = GetParam().run(grid);
  EXPECT_FALSE(run.cancelled);
  ASSERT_EQ(run.committed.size(), kCells);
  ASSERT_EQ(updates.size(), kCells);
  u64 committed = 0;
  for (usize i = 0; i < kCells; ++i) {
    EXPECT_GE(run.committed[i], kInstructions) << "cell " << i;
    committed += run.committed[i];
    EXPECT_EQ(updates[i].cells_done, i + 1);
    EXPECT_EQ(updates[i].cells_total, kCells);
    EXPECT_EQ(updates[i].committed, committed) << "update " << i;
    // Cell i reports right after writing its record, before cell i + 1
    // starts: exactly cells 0..i have records at that moment.
    EXPECT_EQ(recorded_at_update[i], first_cells(i + 1)) << "update " << i;
  }
}

TEST_P(GridContract, CancelAfterKCellsLeavesTheRestUnrun) {
  constexpr u64 kRan = 3;
  u64 reported = 0;
  Grid grid;
  grid.jobs = 1;
  grid.checkpoint.dir = dir_;
  grid.progress = [&](const ProgressUpdate& update) {
    reported = update.cells_done;
  };
  grid.cancel = [&] { return reported >= kRan; };
  const GridRun run = GetParam().run(grid);
  EXPECT_TRUE(run.cancelled);
  EXPECT_EQ(reported, kRan);
  ASSERT_EQ(run.committed.size(), kCells);
  for (usize i = 0; i < kCells; ++i) {
    EXPECT_EQ(run.committed[i] != 0, i < kRan) << "cell " << i;
  }
  EXPECT_EQ(recorded_cells(), first_cells(kRan));
}

TEST_P(GridContract, CancelUnderWorkersRunsNothing) {
  u64 updates = 0;
  Grid grid;
  grid.jobs = 2;
  grid.checkpoint.dir = dir_;
  grid.progress = [&](const ProgressUpdate&) { ++updates; };
  grid.cancel = [] { return true; };
  const GridRun run = GetParam().run(grid);
  EXPECT_TRUE(run.cancelled);
  EXPECT_EQ(updates, 0u);
  EXPECT_EQ(run.committed, std::vector<u64>(kCells, 0));
  EXPECT_TRUE(recorded_cells().empty());
}

TEST_P(GridContract, GridCountersEqualTheCells) {
  metrics::Registry registry;
  Grid grid;
  grid.jobs = 2;
  grid.metrics = &registry;
  const GridRun run = GetParam().run(grid);
  u64 committed = 0;
  for (u64 cell : run.committed) committed += cell;
  const metrics::Labels kind = {{"kind", GetParam().kind}};
  metrics::Counter* cells =
      registry.counter("reese_grid_cells_completed_total", kind);
  metrics::Counter* instructions =
      registry.counter("reese_grid_committed_instructions_total", kind);
  ASSERT_NE(cells, nullptr);
  ASSERT_NE(instructions, nullptr);
  EXPECT_EQ(cells->value(), kCells);
  EXPECT_EQ(instructions->value(), committed);
}

TEST_P(GridContract, ResumeRecomputesUnreadableRecords) {
  Grid grid;
  grid.jobs = 1;
  grid.checkpoint.dir = dir_;
  const GridRun reference = GetParam().run(grid);
  ASSERT_EQ(recorded_cells(), first_cells(kCells));
  std::vector<std::string> records;
  for (usize i = 0; i < kCells; ++i) records.push_back(read_file(record(i)));

  // A killed grid: one record missing, one overwritten with garbage, one
  // truncated mid-payload.
  fs::remove(record(0));
  {
    std::FILE* file = std::fopen(record(5).c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("garbage", file);
    std::fclose(file);
  }
  fs::resize_file(record(6), records[6].size() / 2);

  u64 done = 0;
  u64 total = 0;
  grid.jobs = 2;
  grid.checkpoint.resume = true;
  grid.progress = [&](const ProgressUpdate& update) {
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    done = std::max(done, update.cells_done);
    total = update.cells_total;
  };
  const GridRun resumed = GetParam().run(grid);
  EXPECT_FALSE(resumed.cancelled);
  EXPECT_EQ(resumed.committed, reference.committed);
  EXPECT_EQ(resumed.report, reference.report);
  EXPECT_EQ(done, kCells);
  EXPECT_EQ(total, kCells);
  for (usize i = 0; i < kCells; ++i) {
    EXPECT_EQ(read_file(record(i)), records[i]) << GetParam().done_file(i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runners, GridContract,
    ::testing::Values(Runner{"Experiment", "experiment", experiment_done_file,
                             run_experiment_grid},
                      Runner{"Campaign", "campaign", campaign_done_file,
                             run_campaign_grid}),
    [](const ::testing::TestParamInfo<Runner>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace reese::sim
