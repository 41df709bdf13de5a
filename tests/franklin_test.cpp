// Tests for the Franklin dual-execution scheme ([24]) — the related-work
// baseline the paper compares REESE against.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pipeline.h"
#include "faults/injector.h"
#include "isa/iss.h"
#include "workloads/workload.h"

namespace reese {
namespace {

core::CoreConfig franklin_config(u32 spare_alus = 0) {
  core::CoreConfig config = core::with_reese(core::starting_config(), spare_alus);
  config.reese.scheme = core::RedundancyScheme::kFranklin;
  return config;
}

workloads::Workload load(const std::string& name, u64 iterations = 0) {
  workloads::WorkloadOptions options;
  options.iterations = iterations;
  auto made = workloads::make_workload(name, options);
  EXPECT_TRUE(made.ok());
  return std::move(made).value();
}

class FranklinWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FranklinWorkloadTest, ArchStateMatchesIss) {
  const workloads::Workload workload = load(GetParam(), /*iterations=*/6);
  isa::Iss iss(workload.program);
  const isa::IssResult golden = iss.run(3'000'000);
  ASSERT_TRUE(golden.halted);

  core::Pipeline pipeline(workload.program, franklin_config());
  ASSERT_EQ(pipeline.run(3'000'000, 96'000'000), core::StopReason::kHalted);
  EXPECT_EQ(pipeline.arch_state().out_hash, golden.out_hash);
  EXPECT_EQ(pipeline.stats().committed, golden.executed_instructions);
  EXPECT_EQ(pipeline.stats().comparisons, pipeline.stats().committed);
  EXPECT_EQ(pipeline.stats().errors_detected, 0u);
}

INSTANTIATE_TEST_SUITE_P(SpecLike, FranklinWorkloadTest,
                         ::testing::ValuesIn(workloads::spec_like_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Franklin, EveryInstructionExecutedTwice) {
  const workloads::Workload workload = load("go");
  core::Pipeline pipeline(workload.program, franklin_config());
  pipeline.run(30'000, 6'000'000);
  const core::CoreStats& stats = pipeline.stats();
  EXPECT_GE(stats.comparisons, stats.committed);
  EXPECT_EQ(stats.committed_r, stats.comparisons);
  EXPECT_GE(stats.issued_r, stats.comparisons);
}

TEST(Franklin, SlowerThanBaseline) {
  const workloads::Workload wb = load("li");
  core::Pipeline baseline(wb.program, core::starting_config());
  baseline.run(30'000, 6'000'000);

  const workloads::Workload wf = load("li");
  core::Pipeline franklin(wf.program, franklin_config());
  franklin.run(30'000, 6'000'000);

  EXPECT_LT(franklin.stats().ipc(), baseline.stats().ipc());
}

TEST(Franklin, ReeseBeatsFranklinOnSmallWindows) {
  // The paper's pitch: the R-queue releases completed instructions from
  // the RUU, while Franklin's duplication holds window slots twice as
  // long. At RUU=16 REESE should win on average across the benchmarks.
  double reese_sum = 0.0;
  double franklin_sum = 0.0;
  for (const std::string& name : workloads::spec_like_names()) {
    const workloads::Workload wr = load(name);
    core::Pipeline reese(wr.program,
                         core::with_reese(core::starting_config()));
    reese.run(20'000, 4'000'000);
    reese_sum += reese.stats().ipc();

    const workloads::Workload wf = load(name);
    core::Pipeline franklin(wf.program, franklin_config());
    franklin.run(20'000, 4'000'000);
    franklin_sum += franklin.stats().ipc();
  }
  EXPECT_GT(reese_sum, franklin_sum);
}

TEST(Franklin, SpareAlusHelp) {
  const workloads::Workload w0 = load("li");
  core::Pipeline none(w0.program, franklin_config(0));
  none.run(30'000, 6'000'000);

  const workloads::Workload w2 = load("li");
  core::Pipeline two(w2.program, franklin_config(2));
  two.run(30'000, 6'000'000);

  EXPECT_GT(two.stats().ipc(), none.stats().ipc());
}

TEST(Franklin, DetectsInjectedFaults) {
  const workloads::Workload workload = load("gcc");
  faults::InjectorConfig config;
  config.rate = 2e-3;
  faults::Injector injector(config);
  core::Pipeline pipeline(workload.program, franklin_config());
  pipeline.set_fault_hook(&injector);
  pipeline.run(40'000, 8'000'000);
  ASSERT_GT(injector.injected(), 30u);
  EXPECT_EQ(injector.detected(), injector.injected());
  EXPECT_EQ(injector.undetected(), 0u);
}

TEST(Franklin, SeparationIsShorterThanReese) {
  // Franklin re-executes in-window, so the P->R separation — the paper's
  // Δt guarantee — is much shorter than REESE's queue traversal provides.
  const workloads::Workload wf = load("perl");
  core::Pipeline franklin(wf.program, franklin_config());
  franklin.run(30'000, 6'000'000);

  const workloads::Workload wr = load("perl");
  core::Pipeline reese(wr.program, core::with_reese(core::starting_config()));
  reese.run(30'000, 6'000'000);

  EXPECT_LT(franklin.stats().separation.mean(),
            reese.stats().separation.mean());
}

TEST(Franklin, DeadlockFreeTinyConfig) {
  const workloads::Workload workload = load("li");
  core::CoreConfig config = franklin_config();
  config.ruu_size = 2;
  config.lsq_size = 1;
  config.mem_port_count = 1;
  config.int_alu_count = 1;
  core::Pipeline pipeline(workload.program, config);
  EXPECT_EQ(pipeline.run(3'000, 3'000'000), core::StopReason::kCommitTarget);
}

/// Strikes a D-L1 line every few cycles and records the PC each consumed
/// poison is charged to.
class DcacheStrikes final : public core::FaultHook {
 public:
  core::FaultDecision on_instruction(InstSeq, Cycle, Addr,
                                     const isa::Instruction&) override {
    return {};
  }
  void on_detected(InstSeq, Cycle, Cycle) override {}
  void on_undetected(InstSeq) override {}
  core::FaultSite site() const override { return core::FaultSite::kDCache; }
  core::SiteStrike on_site_cycle(Cycle now) override {
    if (now % 8 != 0) return {};
    return {true, rng_.next(), 0, 0};
  }
  void on_site_outcome(core::FaultOutcome outcome, Addr pc, Cycle,
                       Cycle) override {
    if (outcome == core::FaultOutcome::kSdc) sdc_pcs.push_back(pc);
  }

  std::vector<Addr> sdc_pcs;

 private:
  SplitMix64 rng_{7};
};

TEST(Franklin, DuplicateLoadChargesConsumedPoisonToItsOwnPc) {
  // Only reads consume a poisoned D-L1 line (a store overwrites it), so
  // every SDC must be charged to a load. A duplicate load that reads the
  // poison must drain the event at once; left pending, it is charged to
  // whichever access drains next — often a committing store.
  const workloads::Workload workload = load("gcc");
  DcacheStrikes hook;
  core::Pipeline pipeline(workload.program, franklin_config());
  pipeline.set_fault_hook(&hook);
  pipeline.run(20'000, 4'000'000);
  ASSERT_GT(hook.sdc_pcs.size(), 10u);
  for (Addr pc : hook.sdc_pcs) {
    ASSERT_TRUE(workload.program.contains_pc(pc));
    EXPECT_TRUE(isa::is_load(workload.program.at(pc).op))
        << "poison consumption charged to "
        << isa::disassemble(workload.program.at(pc));
  }
}

/// Strikes a random RUU slot's stored result every few cycles and tallies
/// the site outcomes.
class RuuStrikes final : public core::FaultHook {
 public:
  core::FaultDecision on_instruction(InstSeq, Cycle, Addr,
                                     const isa::Instruction&) override {
    return {};
  }
  void on_detected(InstSeq, Cycle, Cycle) override {}
  void on_undetected(InstSeq) override {}
  core::FaultSite site() const override { return core::FaultSite::kRuu; }
  core::SiteStrike on_site_cycle(Cycle now) override {
    if (now % 64 != 0) return {};
    return {true, rng_.next(), static_cast<unsigned>(rng_.next() & 63), 0};
  }
  void on_site_outcome(core::FaultOutcome outcome, Addr, Cycle,
                       Cycle) override {
    ++outcomes[static_cast<usize>(outcome)];
  }

  u64 outcomes[3] = {};

 private:
  SplitMix64 rng_{11};
};

TEST(Franklin, ComparatorCatchOfAnRuuStrikeIsADetection) {
  // Only struck entries can mismatch under a site-only hook, so every
  // comparator catch is a strike the checker detected — not one that
  // commit later resolves as SDC or masked.
  const workloads::Workload workload = load("gcc");
  RuuStrikes hook;
  core::Pipeline pipeline(workload.program, franklin_config());
  pipeline.set_fault_hook(&hook);
  ASSERT_EQ(pipeline.run(40'000, 8'000'000), core::StopReason::kCommitTarget);
  const u64 detected =
      hook.outcomes[static_cast<usize>(core::FaultOutcome::kDetected)];
  EXPECT_GT(pipeline.stats().errors_detected, 0u);
  EXPECT_EQ(detected, pipeline.stats().errors_detected);
}

}  // namespace
}  // namespace reese
