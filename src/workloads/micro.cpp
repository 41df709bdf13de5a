// Microbenchmarks: single-behaviour kernels used by unit tests and the
// ablation benches to pin down one pipeline mechanism at a time.
#include <numeric>
#include <vector>

#include "common/strutil.h"
#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese::workloads {
namespace {

Workload wrap(const char* name, const char* description,
              const std::string& source, const DataTables& tables = {}) {
  Workload workload;
  workload.name = name;
  workload.mimics = "micro";
  workload.description = description;
  workload.program = assemble_or_die(source, name, tables);
  return workload;
}

}  // namespace

Workload make_ilp_chain(const WorkloadOptions& options) {
  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# Eight independent accumulator chains: as much ILP as the machine can eat.
kernel:
  li   t0, 64
  li   a1, 1
  li   a2, 2
  li   a3, 3
  li   a4, 4
  li   a5, 5
  li   a6, 6
  li   a7, 7
  li   t5, 8
ilp_loop:
  addi a1, a1, 1
  addi a2, a2, 2
  addi a3, a3, 3
  addi a4, a4, 4
  addi a5, a5, 5
  addi a6, a6, 6
  addi a7, a7, 7
  addi t5, t5, 8
  addi t0, t0, -1
  bnez t0, ilp_loop
  add  a1, a1, a2
  add  a3, a3, a4
  add  a5, a5, a6
  add  a7, a7, t5
  add  a1, a1, a3
  add  a5, a5, a7
  add  a1, a1, a5
  out  a1
  ret
)";
  return wrap("ilp_chain", "8 independent add chains (ILP ceiling)", source);
}

Workload make_dep_chain(const WorkloadOptions& options) {
  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# One serial dependence chain: the ILP floor.
kernel:
  li   t0, 256
  li   a1, 1
dep_loop:
  addi a1, a1, 3
  xori a1, a1, 5
  addi a1, a1, 7
  addi t0, t0, -1
  bnez t0, dep_loop
  out  a1
  ret
)";
  return wrap("dep_chain", "single serial add/xor chain (ILP floor)", source);
}

Workload make_mem_stream(const WorkloadOptions& options) {
  const u64 bytes = 262144ULL * options.scale;  // 256 KiB: spills L1, fits L2
  std::string source = program_shell("kernel", options.iterations);
  source += format(R"(
# Streaming read-modify-write over a buffer larger than L1.
kernel:
  la   t0, buffer
  li   t1, %llu
  li   t6, 0
stream_loop:
  ld   t2, 0(t0)
  add  t6, t6, t2
  addi t2, t2, 1
  sd   t2, 0(t0)
  ld   t3, 8(t0)
  add  t6, t6, t3
  ld   t4, 16(t0)
  add  t6, t6, t4
  ld   t5, 24(t0)
  add  t6, t6, t5
  addi t0, t0, 32
  addi t1, t1, -32
  bnez t1, stream_loop
  out  t6
  ret

  .data
  .align 8
buffer: .space %llu
)",
                   static_cast<unsigned long long>(bytes),
                   static_cast<unsigned long long>(bytes));
  return wrap("mem_stream", "sequential RMW over 256 KiB (L1-missing)", source);
}

Workload make_pointer_chase(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0xC4A5E);
  const usize entries = 8192 * options.scale;  // 64 KiB of pointers

  // Random single-cycle permutation (Sattolo's algorithm) so the chase
  // visits every slot before repeating.
  std::vector<u64> order(entries);
  std::iota(order.begin(), order.end(), 0);
  for (usize i = entries - 1; i > 0; --i) {
    const usize j = static_cast<usize>(rng.next_below(i));
    std::swap(order[i], order[j]);
  }
  std::vector<u64> table(entries);
  const Addr base = isa::kDefaultDataBase;
  for (usize i = 0; i < entries; ++i) {
    table[order[i]] = base + order[(i + 1) % entries] * 8;
  }

  std::string source = program_shell("kernel", options.iterations);
  source += format(R"(
# Serial pointer chase through a random permutation: latency-bound loads.
kernel:
  la   t0, chain
  li   t1, %llu
chase_loop:
  ld   t0, 0(t0)
  addi t1, t1, -1
  bnez t1, chase_loop
  out  t0
  ret

  .data
)",
                   static_cast<unsigned long long>(entries / 2));
  DataTables tables;
  source += dword_table("chain", table, &tables);
  return wrap("pointer_chase",
              "serial chase through a random 64 KiB permutation", source,
              tables);
}

Workload make_branch_torture(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0xB7A9C4);
  std::vector<u8> bits(4096);
  for (u8& b : bits) b = static_cast<u8>(rng.next() & 1);

  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# Branch on 4096 random bits: ~50% mispredictions for any predictor.
kernel:
  la   t0, bits
  li   t1, 4096
  li   t6, 0
bt_loop:
  lbu  t2, 0(t0)
  beqz t2, bt_zero
  addi t6, t6, 3
  j    bt_next
bt_zero:
  slli t6, t6, 1
  addi t6, t6, 1
bt_next:
  addi t0, t0, 1
  addi t1, t1, -1
  bnez t1, bt_loop
  out  t6
  ret

  .data
)";
  DataTables tables;
  source += byte_table("bits", bits, &tables);
  return wrap("branch_torture", "data-dependent branches on random bits",
              source, tables);
}

Workload make_matmul(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0x3A73);
  std::vector<u64> a(16 * 16), b(16 * 16);
  for (u64& v : a) v = rng.next_below(1000);
  for (u64& v : b) v = rng.next_below(1000);

  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# 16x16 integer matrix multiply: multiplier-unit pressure.
kernel:
  la   t0, mat_a
  la   t1, mat_b
  la   t2, mat_c
  li   t6, 0
  li   t3, 0              # i
mm_i:
  li   t4, 0              # j
mm_j:
  li   a1, 0              # acc
  li   t5, 0              # k
mm_k:
  slli a2, t3, 7          # &a[i][k] = a + i*128 + k*8
  slli a3, t5, 3
  add  a2, a2, a3
  add  a2, a2, t0
  ld   a4, 0(a2)
  slli a2, t5, 7          # &b[k][j]
  slli a3, t4, 3
  add  a2, a2, a3
  add  a2, a2, t1
  ld   a5, 0(a2)
  mul  a4, a4, a5
  add  a1, a1, a4
  addi t5, t5, 1
  li   a2, 16
  blt  t5, a2, mm_k
  slli a2, t3, 7          # c[i][j] = acc
  slli a3, t4, 3
  add  a2, a2, a3
  add  a2, a2, t2
  sd   a1, 0(a2)
  add  t6, t6, a1
  addi t4, t4, 1
  li   a2, 16
  blt  t4, a2, mm_j
  addi t3, t3, 1
  blt  t3, a2, mm_i
  out  t6
  ret

  .data
)";
  DataTables tables;
  source += dword_table("mat_a", a, &tables);
  source += dword_table("mat_b", b, &tables);
  source += "  .align 8\nmat_c: .space 2048\n";
  return wrap("matmul", "16x16 integer matmul (IntMult pressure)", source,
              tables);
}

Workload make_div_heavy(const WorkloadOptions& options) {
  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# Serial divides: the unpipelined unit dominates.
kernel:
  li   t0, 48
  li   a1, 0x7FFFFFFFFFFF
  li   a2, 37
  li   a5, 1000003
dh_loop:
  div  a3, a1, a2
  rem  a4, a1, a2
  add  a1, a3, a4
  add  a1, a1, a5
  addi t0, t0, -1
  bnez t0, dh_loop
  out  a1
  ret
)";
  return wrap("div_heavy", "serial div/rem chain (unpipelined unit)", source);
}

Workload make_fp_daxpy(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0xDA);
  std::vector<u64> x(512), y(512);
  for (u64& v : x) {
    v = std::bit_cast<u64>(1.0 + rng.next_double());
  }
  for (u64& v : y) {
    v = std::bit_cast<u64>(2.0 + rng.next_double());
  }

  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# daxpy over 512 doubles: FP adder/multiplier traffic.
kernel:
  la   t0, vec_x
  la   t1, vec_y
  li   t2, 512
  li   t3, 3
  fcvt.d.l ft0, t3        # alpha = 3.0
fp_loop:
  fld  ft1, 0(t0)
  fld  ft2, 0(t1)
  fmul ft1, ft1, ft0
  fadd ft2, ft2, ft1
  fsd  ft2, 0(t1)
  addi t0, t0, 8
  addi t1, t1, 8
  addi t2, t2, -1
  bnez t2, fp_loop
  fld  ft3, -8(t1)
  fcvt.l.d t4, ft3
  out  t4
  ret

  .data
)";
  DataTables tables;
  source += dword_table("vec_x", x, &tables);
  source += dword_table("vec_y", y, &tables);
  return wrap("fp_daxpy", "daxpy over 512 doubles (FP units)", source,
              tables);
}

}  // namespace reese::workloads
