// Determinism tests for the parallel experiment grid runner: the result
// matrix (per-cell IPC, cycles, committed counts, stop reasons) must be
// bit-identical no matter how many workers ran it.
#include "sim/experiment.h"

#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "workloads/workload.h"

namespace reese::sim {
namespace {

// Figure 2's grid (every standard model over the six SPECint95 stand-ins)
// at a reduced budget, plus two extra seeds per cell.
ExperimentSpec fig2_grid(u32 jobs) {
  ExperimentSpec spec;
  spec.title = "parallel determinism grid";
  spec.base = core::starting_config();
  spec.models = standard_models();
  spec.workloads = workloads::spec_like_names();
  spec.instructions = 5'000;
  spec.extra_seeds = {0xAB12, 0xCD34};
  spec.jobs = jobs;
  return spec;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (usize w = 0; w < a.cells.size(); ++w) {
    ASSERT_EQ(a.cells[w].size(), b.cells[w].size());
    for (usize m = 0; m < a.cells[w].size(); ++m) {
      ASSERT_EQ(a.cells[w][m].size(), b.cells[w][m].size());
      for (usize s = 0; s < a.cells[w][m].size(); ++s) {
        const ExperimentCell& lhs = a.cells[w][m][s];
        const ExperimentCell& rhs = b.cells[w][m][s];
        EXPECT_EQ(lhs.ipc, rhs.ipc) << "w=" << w << " m=" << m << " s=" << s;
        EXPECT_EQ(lhs.cycles, rhs.cycles);
        EXPECT_EQ(lhs.committed, rhs.committed);
        EXPECT_EQ(lhs.stop, rhs.stop);
      }
    }
  }
  // The derived matrices must match exactly too (same summation order).
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.ipc_stdev, b.ipc_stdev);
}

TEST(ExperimentParallelTest, TwoJobsMatchesSequential) {
  const ExperimentResult seq = run_experiment(fig2_grid(1));
  const ExperimentResult par = run_experiment(fig2_grid(2));
  expect_identical(seq, par);
  EXPECT_EQ(seq.cells, par.cells);  // whole-grid operator==, not just ipc
}

TEST(ExperimentParallelTest, HardwareConcurrencyMatchesSequential) {
  const u32 hardware = std::max(1u, std::thread::hardware_concurrency());
  const ExperimentResult seq = run_experiment(fig2_grid(1));
  const ExperimentResult par = run_experiment(fig2_grid(hardware));
  expect_identical(seq, par);
}

TEST(ExperimentParallelTest, RepeatedParallelRunsAreStable) {
  const ExperimentResult first = run_experiment(fig2_grid(4));
  const ExperimentResult second = run_experiment(fig2_grid(4));
  expect_identical(first, second);
}

TEST(ExperimentParallelTest, CellsRecordPlausibleOutcomes) {
  const ExperimentResult result = run_experiment(fig2_grid(2));
  for (const auto& per_model : result.cells) {
    for (const auto& per_seed : per_model) {
      for (const ExperimentCell& cell : per_seed) {
        EXPECT_GT(cell.ipc, 0.0);
        EXPECT_GT(cell.cycles, 0u);
        EXPECT_GE(cell.committed, 5'000u);
        EXPECT_EQ(cell.stop, core::StopReason::kCommitTarget);
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::atomic<int>> hits(257);
  for (auto& hit : hits) hit = 0;
  pool.parallel_for(hits.size(), [&](usize i) { ++hits[i]; });
  for (usize i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 5; ++batch) {
    std::atomic<usize> sum{0};
    pool.parallel_for(100, [&](usize i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.parallel_for(seen.size(),
                    [&](usize i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ZeroCountIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](usize) { FAIL() << "must not be called"; });
}

TEST(ResolveJobCountTest, PositiveRequestWins) {
  EXPECT_EQ(resolve_job_count(3), 3u);
  EXPECT_EQ(resolve_job_count(1), 1u);
}

TEST(ResolveJobCountTest, AutoIsAtLeastOne) {
  EXPECT_GE(resolve_job_count(0), 1u);
}

}  // namespace
}  // namespace reese::sim
