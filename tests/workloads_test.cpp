// Workload validation: every registered workload must assemble, run to a
// clean HALT on the golden ISS, publish checksums, be deterministic, and
// produce identical architectural results on the baseline and REESE
// pipelines.
#include <gtest/gtest.h>

#include <map>

#include "common/snapshot.h"
#include "common/strutil.h"
#include "core/pipeline.h"
#include "isa/assembler.h"
#include "isa/iss.h"
#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese {
namespace {

constexpr u64 kIterations = 8;
constexpr u64 kMaxInstructions = 4'000'000;

workloads::Workload make(const std::string& name, u64 iterations,
                         u64 seed = 0x5EED5EED) {
  workloads::WorkloadOptions options;
  options.iterations = iterations;
  options.seed = seed;
  auto result = workloads::make_workload(name, options);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

/// FNV-1a, continued from `hash`, over every part of a program image that
/// simulation reads: entry, encoded and decoded text, the data image and the
/// symbol table.
u64 image_digest(const isa::Program& program, u64 hash) {
  std::vector<u8> bytes;
  const auto put = [&bytes](u64 value, unsigned width) {
    for (unsigned b = 0; b < width; ++b) {
      bytes.push_back(static_cast<u8>(value >> (8 * b)));
    }
  };
  put(program.entry, 8);
  put(program.words.size(), 8);
  for (u32 word : program.words) put(word, 4);
  for (const isa::Instruction& inst : program.code) {
    put(static_cast<u64>(inst.op), 1);
    put(inst.rd, 1);
    put(inst.rs1, 1);
    put(inst.rs2, 1);
    put(static_cast<u64>(inst.imm), 8);
  }
  put(program.data.size(), 8);
  bytes.insert(bytes.end(), program.data.begin(), program.data.end());
  for (const auto& [name, address] : program.symbols) {
    bytes.insert(bytes.end(), name.begin(), name.end());
    put(0, 1);
    put(address, 8);
  }
  return snapshot_fnv1a(bytes.data(), bytes.size(), hash);
}

/// Image digests of every registered workload over seeds {0x5EED5EED, 1, 2}
/// x iterations {0, 3}, chained in that order. Recorded when the data tables
/// were still printed as .dword/.byte text and assembled, so they pin the
/// layout, symbols and data bytes of every program image.
const std::map<std::string, u64>& golden_image_digests() {
  static const auto* kDigests = new std::map<std::string, u64>{
      {"branch_torture", 0x0ced5a3e29b497c7ULL},
      {"compress", 0x95c980f006484423ULL},
      {"dep_chain", 0x320347382a879777ULL},
      {"div_heavy", 0xf3d2f18412847e21ULL},
      {"fp_daxpy", 0xb688b5b656ac3051ULL},
      {"gcc", 0xc0bfbf4a9515ee81ULL},
      {"go", 0x3ec8b34514b159b1ULL},
      {"ijpeg", 0x9f33a8b5c85018b3ULL},
      {"ilp_chain", 0x776d70a9e5706cb5ULL},
      {"li", 0x30ac439721a139adULL},
      {"m88ksim", 0xbe296528852353c7ULL},
      {"matmul", 0xf4be071b5709eff7ULL},
      {"mem_stream", 0x4d9b4793069d642bULL},
      {"perl", 0x50bf20002b354c23ULL},
      {"pointer_chase", 0x6cbec1f539399369ULL},
      {"swim", 0x24f01df51515ebbfULL},
      {"tomcatv", 0xd61557444af54cc9ULL},
      {"vortex", 0x543feb19399652a7ULL},
  };
  return *kDigests;
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, ImageMatchesGolden) {
  u64 digest = 0xcbf29ce484222325ULL;
  for (u64 seed : {u64{0x5EED5EED}, u64{1}, u64{2}}) {
    for (u64 iterations : {u64{0}, u64{3}}) {
      digest = image_digest(make(GetParam(), iterations, seed).program, digest);
    }
  }
  const std::string row =
      format("{\"%s\", 0x%016llxULL},", GetParam().c_str(),
             static_cast<unsigned long long>(digest));
  const auto golden = golden_image_digests().find(GetParam());
  ASSERT_NE(golden, golden_image_digests().end()) << "no digest: " << row;
  EXPECT_EQ(digest, golden->second) << "this image hashes as " << row;
}

TEST_P(WorkloadTest, RunsToHaltOnIss) {
  const workloads::Workload workload = make(GetParam(), kIterations);
  isa::Iss iss(workload.program);
  const isa::IssResult result = iss.run(kMaxInstructions);
  EXPECT_TRUE(result.halted) << "workload did not HALT (bad_pc="
                             << result.bad_pc << ", pc=" << result.final_pc
                             << ")";
  EXPECT_EQ(result.out_count, kIterations)
      << "expected one OUT checksum per iteration";
  EXPECT_GT(result.executed_instructions, 100u * kIterations);
}

TEST_P(WorkloadTest, IsDeterministic) {
  const workloads::Workload first = make(GetParam(), kIterations);
  const workloads::Workload second = make(GetParam(), kIterations);
  isa::Iss iss_first(first.program);
  isa::Iss iss_second(second.program);
  const isa::IssResult a = iss_first.run(kMaxInstructions);
  const isa::IssResult b = iss_second.run(kMaxInstructions);
  EXPECT_EQ(a.out_hash, b.out_hash);
  EXPECT_EQ(a.executed_instructions, b.executed_instructions);
}

TEST_P(WorkloadTest, SeedChangesData) {
  // Different seeds must produce different checksums for data-driven
  // kernels (the fixed ones — pure arithmetic — are exempt).
  const std::string name = GetParam();
  if (name == "ilp_chain" || name == "dep_chain" || name == "div_heavy" ||
      name == "li" || name == "vortex" || name == "mem_stream") {
    GTEST_SKIP() << "kernel has no seeded data tables";
  }
  const workloads::Workload workload_a = make(name, kIterations, 1);
  const workloads::Workload workload_b = make(name, kIterations, 2);
  isa::Iss iss_a(workload_a.program);
  isa::Iss iss_b(workload_b.program);
  EXPECT_NE(iss_a.run(kMaxInstructions).out_hash,
            iss_b.run(kMaxInstructions).out_hash);
}

TEST_P(WorkloadTest, BaselinePipelineMatchesIss) {
  const workloads::Workload workload = make(GetParam(), kIterations);
  isa::Iss iss(workload.program);
  const isa::IssResult golden = iss.run(kMaxInstructions);
  ASSERT_TRUE(golden.halted);

  core::Pipeline pipeline(workload.program, core::starting_config());
  ASSERT_EQ(pipeline.run(kMaxInstructions, 8 * kMaxInstructions),
            core::StopReason::kHalted);
  EXPECT_EQ(pipeline.arch_state().out_hash, golden.out_hash);
  EXPECT_EQ(pipeline.stats().committed, golden.executed_instructions);
  EXPECT_EQ(pipeline.memory().content_hash(), iss.memory().content_hash());
}

TEST_P(WorkloadTest, ReesePipelineMatchesIss) {
  const workloads::Workload workload = make(GetParam(), kIterations);
  isa::Iss iss(workload.program);
  const isa::IssResult golden = iss.run(kMaxInstructions);
  ASSERT_TRUE(golden.halted);

  core::Pipeline pipeline(workload.program,
                          core::with_reese(core::starting_config()));
  ASSERT_EQ(pipeline.run(kMaxInstructions, 8 * kMaxInstructions),
            core::StopReason::kHalted);
  EXPECT_EQ(pipeline.arch_state().out_hash, golden.out_hash);
  EXPECT_EQ(pipeline.stats().committed, golden.executed_instructions);
  EXPECT_EQ(pipeline.stats().comparisons, pipeline.stats().committed);
  EXPECT_EQ(pipeline.stats().errors_detected, 0u);
}

TEST_P(WorkloadTest, InfiniteVariantKeepsRunning) {
  const workloads::Workload workload = make(GetParam(), /*iterations=*/0);
  core::Pipeline pipeline(workload.program, core::starting_config());
  EXPECT_EQ(pipeline.run(/*commit_target=*/50'000, /*cycle_limit=*/5'000'000),
            core::StopReason::kCommitTarget);
}

// A table placed between text-declared .align/.space items, as perl's htab
// and compress's dict sit next to theirs, gets the address and bytes that
// the same table written as .byte/.dword text gets.
TEST(DataTables, CopiedTablesMatchTheTextAssembledForm) {
  const std::vector<u8> bytes = {1, 2, 3, 250, 0, 7, 9};
  const std::vector<u64> dwords = {0x0123456789abcdefULL, 0, ~u64{0}};
  const std::string head = "main:\n  halt\n  .data\nhead: .space 3\n";
  const std::string middle = "  .align 4\nmid: .space 5\n";
  const std::string tail = "  .align 8\ndict: .space 16\n";

  workloads::DataTables tables;
  const std::string source = head +
                             workloads::byte_table("bytes", bytes, &tables) +
                             middle +
                             workloads::dword_table("dwords", dwords, &tables) +
                             tail;
  const isa::Program copied =
      workloads::assemble_or_die(source, "copied", tables);

  auto text = isa::assemble(
      head + "bytes:\n  .byte 1, 2, 3, 250, 0, 7, 9\n" + middle +
      "  .align 8\ndwords:\n"
      "  .dword 0x123456789abcdef, 0x0, -1\n" +
      tail);
  ASSERT_TRUE(text.ok()) << text.error().to_string();
  const isa::Program& reference = text.value();

  for (const char* label : {"head", "bytes", "mid", "dwords", "dict"}) {
    EXPECT_EQ(copied.symbol(label), reference.symbol(label)) << label;
  }
  EXPECT_EQ(copied.symbol("bytes") - copied.data_base, 3u);
  EXPECT_EQ(copied.symbol("dwords") - copied.data_base, 24u);
  EXPECT_EQ(copied.data, reference.data);
  EXPECT_EQ(copied.data.size(), 64u);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadTest,
    ::testing::ValuesIn(workloads::all_workload_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace reese
