// Simulator wrapper + experiment harness tests.
#include <gtest/gtest.h>

#include <fstream>

#include "common/flags.h"
#include "isa/iss.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace reese::sim {
namespace {

TEST(Simulator, RunsToBudget) {
  auto workload = workloads::make_workload("dep_chain", {});
  ASSERT_TRUE(workload.ok());
  Simulator simulator(std::move(workload).value(), core::starting_config());
  const SimResult result = simulator.run(10'000);
  EXPECT_EQ(result.stop, core::StopReason::kCommitTarget);
  EXPECT_GE(result.committed, 10'000u);
  EXPECT_GT(result.ipc, 0.0);
  EXPECT_EQ(result.workload, "dep_chain");
}

TEST(Simulator, OwnsWorkloadLifetime) {
  // The Simulator must keep the Program alive internally (passing a
  // temporary Workload is safe).
  Simulator simulator(
      std::move(workloads::make_workload("ilp_chain", {})).value(),
      core::starting_config());
  EXPECT_EQ(simulator.run(5'000).stop, core::StopReason::kCommitTarget);
}

TEST(Models, NamesAndOrder) {
  EXPECT_STREQ(model_name(Model::kBaseline), "Baseline");
  EXPECT_STREQ(model_name(Model::kReese2Alu1Mult), "R+2ALU+1Mult");
  ASSERT_EQ(standard_models().size(), 5u);
  EXPECT_EQ(standard_models()[0], Model::kBaseline);
}

TEST(Models, ApplyModelAddsHardware) {
  const core::CoreConfig base = core::starting_config();
  const core::CoreConfig reese = apply_model(base, Model::kReese);
  EXPECT_TRUE(reese.reese.enabled);
  EXPECT_EQ(reese.int_alu_count, base.int_alu_count);

  const core::CoreConfig two = apply_model(base, Model::kReese2Alu);
  EXPECT_EQ(two.int_alu_count, base.int_alu_count + 2);
  EXPECT_EQ(two.int_mult_count, base.int_mult_count);

  const core::CoreConfig mult = apply_model(base, Model::kReese2Alu1Mult);
  EXPECT_EQ(mult.int_mult_count, base.int_mult_count + 1);

  const core::CoreConfig baseline = apply_model(base, Model::kBaseline);
  EXPECT_FALSE(baseline.reese.enabled);
}

TEST(Experiment, SmallGridRuns) {
  ExperimentSpec spec;
  spec.title = "test grid";
  spec.base = core::starting_config();
  spec.models = {Model::kBaseline, Model::kReese};
  spec.workloads = {"dep_chain", "ilp_chain"};
  spec.instructions = 20'000;
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.ipc.size(), 2u);
  ASSERT_EQ(result.ipc[0].size(), 2u);
  for (const auto& row : result.ipc) {
    for (double ipc : row) EXPECT_GT(ipc, 0.0);
  }
  EXPECT_GT(result.average(0), 0.0);
}

TEST(Experiment, DefaultsFillIn) {
  ExperimentSpec spec;
  spec.base = core::starting_config();
  spec.workloads = {"dep_chain"};
  spec.models = {Model::kBaseline};
  spec.instructions = 5'000;
  const ExperimentResult result = run_experiment(spec);
  EXPECT_EQ(result.spec.instructions, 5'000u);
}

TEST(Experiment, TableContainsWorkloadsAndAverage) {
  ExperimentSpec spec;
  spec.title = "Figure test";
  spec.base = core::starting_config();
  spec.models = {Model::kBaseline, Model::kReese};
  spec.workloads = {"dep_chain"};
  spec.instructions = 5'000;
  const ExperimentResult result = run_experiment(spec);
  const std::string table = result.table();
  EXPECT_NE(table.find("Figure test"), std::string::npos);
  EXPECT_NE(table.find("dep_chain"), std::string::npos);
  EXPECT_NE(table.find("AV"), std::string::npos);
  EXPECT_NE(table.find("Baseline"), std::string::npos);
  EXPECT_NE(table.find("REESE"), std::string::npos);
}

TEST(Experiment, OverheadPctSigns) {
  ExperimentResult result;
  result.spec.models = {Model::kBaseline, Model::kReese};
  result.spec.workloads = {"x"};
  result.ipc = {{2.0, 1.5}};
  EXPECT_DOUBLE_EQ(result.overhead_pct(1), 25.0);
  EXPECT_DOUBLE_EQ(result.overhead_pct(0), 0.0);
  EXPECT_DOUBLE_EQ(result.average(1), 1.5);
}

TEST(Experiment, DeterministicAcrossRuns) {
  ExperimentSpec spec;
  spec.base = core::starting_config();
  spec.models = {Model::kReese};
  spec.workloads = {"go"};
  spec.instructions = 20'000;
  const ExperimentResult a = run_experiment(spec);
  const ExperimentResult b = run_experiment(spec);
  EXPECT_DOUBLE_EQ(a.ipc[0][0], b.ipc[0][0]);
}

TEST(Experiment, CsvFormat) {
  ExperimentResult result;
  result.spec.title = "Figure X";
  result.spec.models = {Model::kBaseline, Model::kReese};
  result.spec.workloads = {"alpha"};
  result.ipc = {{2.0, 1.5}};
  result.ipc_stdev = {{0.0, 0.1}};
  const std::string csv = result.csv();
  EXPECT_NE(csv.find("workload,model,ipc,ipc_stdev"), std::string::npos);
  EXPECT_NE(csv.find("alpha,Baseline,2.000000,0.000000"), std::string::npos);
  EXPECT_NE(csv.find("alpha,REESE,1.500000,0.100000"), std::string::npos);
}

TEST(Experiment, CsvFileWrittenWhenEnvSet) {
  setenv("REESE_CSV_DIR", "/tmp", 1);
  ExperimentSpec spec;
  spec.title = "CSV Probe 42";
  spec.base = core::starting_config();
  spec.models = {Model::kBaseline};
  spec.workloads = {"dep_chain"};
  spec.instructions = 2'000;
  run_experiment(spec);
  unsetenv("REESE_CSV_DIR");
  std::ifstream file("/tmp/csv_probe_42.csv");
  ASSERT_TRUE(file.good());
  std::string header;
  std::getline(file, header);
  EXPECT_EQ(header, "workload,model,ipc,ipc_stdev");
}

TEST(Experiment, MultiSeedProducesStdev) {
  ExperimentSpec spec;
  spec.base = core::starting_config();
  spec.models = {Model::kBaseline};
  spec.workloads = {"go"};  // seeded board data
  spec.instructions = 15'000;
  spec.extra_seeds = {111, 222};
  const ExperimentResult result = run_experiment(spec);
  EXPECT_GT(result.ipc[0][0], 0.0);
  EXPECT_GT(result.ipc_stdev[0][0], 0.0) << "seeded workload must vary";
}

TEST(Budget, EnvOverride) {
  // No env set in tests: default value.
  unsetenv("REESE_SIM_INSTR");
  EXPECT_EQ(default_instruction_budget(), 1'000'000u);
  setenv("REESE_SIM_INSTR", "12345", 1);
  EXPECT_EQ(default_instruction_budget(), 12'345u);
  // Malformed values warn and keep the default instead of truncating.
  setenv("REESE_SIM_INSTR", "3e5", 1);
  EXPECT_EQ(default_instruction_budget(), 1'000'000u);
  unsetenv("REESE_SIM_INSTR");
}

TEST(GridFlags, FillTheSpecFieldsExplicitly) {
  ExperimentSpec spec;
  FlagParser flags;
  add_grid_flags(&flags, &spec.jobs, &spec.checkpoint);
  const char* argv[] = {"fig", "--jobs", "3", "--checkpoint-interval=500",
                        "-resume-from", "ck"};
  ASSERT_TRUE(flags.parse(6, argv).ok());
  EXPECT_EQ(spec.jobs, 3u);
  EXPECT_EQ(spec.checkpoint.interval, 500u);
  EXPECT_EQ(spec.checkpoint.dir, "ck");
  EXPECT_TRUE(spec.checkpoint.resume);

  ExperimentSpec plain;
  FlagParser plain_flags;
  add_grid_flags(&plain_flags, &plain.jobs, &plain.checkpoint);
  const char* plain_argv[] = {"fig", "--checkpoint-dir", "ck"};
  ASSERT_TRUE(plain_flags.parse(3, plain_argv).ok());
  EXPECT_EQ(plain.checkpoint.dir, "ck");
  EXPECT_FALSE(plain.checkpoint.resume);
  EXPECT_EQ(plain.jobs, 0u) << "unset --jobs stays auto";

  const char* bad_argv[] = {"fig", "--jobs", "-2"};
  EXPECT_FALSE(plain_flags.parse(3, bad_argv).ok());
}

}  // namespace
}  // namespace reese::sim
