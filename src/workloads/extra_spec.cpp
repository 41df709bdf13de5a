// The two SPECint95 members the paper did not evaluate (it used six of the
// eight integer benchmarks). Provided as extension workloads so the full
// suite's behaviour can be explored; clearly labelled as such.
#include <vector>

#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese::workloads {

// compress stand-in: run-length + hash coding over a buffer. Byte-grained
// loads, short data-dependent runs, a hash-table of recent strings — the
// classic compress profile of unpredictable short loops.
Workload make_compress_like(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0xC0);

  // Compressible input: runs of repeated bytes with random lengths.
  std::vector<u8> input;
  while (input.size() < 3000) {
    const u8 byte = static_cast<u8>(rng.next_below(32));
    const usize run = 1 + rng.next_below(12);
    for (usize i = 0; i < run && input.size() < 3000; ++i) {
      input.push_back(byte);
    }
  }
  input.push_back(0xFF);  // terminator (never appears in data)
  input.resize(3072, 0xFF);

  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# kernel(a0 = iteration): RLE-scan the input from a rotating offset,
# hashing each (byte, run-length) pair into a dictionary.
kernel:
  la   t0, input
  la   t1, dict
  li   t6, 0               # output "size" checksum
  li   t2, 97              # start offset = (iter*97) & 2047
  mul  t2, a0, t2
  andi t2, t2, 2047
  add  t0, t0, t2
cp_scan:
  lbu  t3, 0(t0)
  li   a1, 0xFF
  beq  t3, a1, cp_done
  # measure the run of t3
  li   a2, 0               # run length
cp_run:
  addi t0, t0, 1
  addi a2, a2, 1
  lbu  a3, 0(t0)
  beq  a3, t3, cp_run
  # hash (byte, run) -> dict slot; count distinct pairs
  slli a4, t3, 4
  xor  a4, a4, a2
  andi a4, a4, 255
  slli a4, a4, 3
  add  a4, a4, t1
  ld   a5, 0(a4)
  addi a5, a5, 1
  sd   a5, 0(a4)
  add  t6, t6, a2
  xor  t6, t6, a5
  j    cp_scan
cp_done:
  out  t6
  ret

  .data
)";
  DataTables tables;
  source += byte_table("input", input, &tables);
  source += "  .align 8\ndict: .space 2048\n";

  Workload workload;
  workload.name = "compress";
  workload.mimics = "SPECint95 129.compress (extension; not in the paper)";
  workload.description =
      "run-length scan + dictionary hashing over 3 KiB of runs";
  workload.program = assemble_or_die(source, "compress_like", tables);
  return workload;
}

// m88ksim stand-in: an interpreter interpreting a toy register machine —
// an indirect-dispatch loop (the jalr goes through a jump table), exactly
// the profile of a CPU simulator benchmark.
Workload make_m88ksim_like(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0x88);

  // Toy machine program: word-encoded {opcode, a, b} triples.
  // Opcodes: 0 add, 1 xor, 2 shift, 3 load-imm, 4 store-acc, 5 loop-back.
  std::vector<u64> toy_program;
  for (unsigned i = 0; i < 96; ++i) {
    const u64 op = rng.next_below(5);  // 0..4
    const u64 a = rng.next_below(8);
    const u64 b = rng.next_below(64);
    toy_program.push_back(op | (a << 8) | (b << 16));
  }
  toy_program.push_back(5);  // loop-back sentinel

  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# kernel(a0 = iteration): interpret the toy program once. Dispatch is an
# indirect jump through a handler table (jalr), the signature pattern of
# m88ksim-style simulators.
kernel:
  addi sp, sp, -16
  sd   ra, 0(sp)
  sd   s1, 8(sp)
  la   t0, toy_prog        # toy PC
  la   t1, toy_regs
  la   t2, handlers
  mv   s1, a0              # accumulator seeded by iteration
mk_loop:
  ld   t3, 0(t0)           # fetch toy instruction
  andi t4, t3, 255         # opcode
  li   a1, 5
  beq  t4, a1, mk_halt
  slli t4, t4, 3
  add  t4, t4, t2
  ld   t4, 0(t4)           # handler address
  srli a2, t3, 8
  andi a2, a2, 255         # operand a (toy register index)
  srli a3, t3, 16
  andi a3, a3, 255         # operand b (immediate)
  jalr ra, t4, 0           # dispatch
  addi t0, t0, 8
  j    mk_loop
mk_halt:
  out  s1
  ld   ra, 0(sp)
  ld   s1, 8(sp)
  addi sp, sp, 16
  ret

# Handlers: a2 = toy reg index (0..7), a3 = immediate. Toy regs at t1.
h_add:
  slli a4, a2, 3
  add  a4, a4, t1
  ld   a5, 0(a4)
  add  a5, a5, a3
  sd   a5, 0(a4)
  add  s1, s1, a5
  ret
h_xor:
  slli a4, a2, 3
  add  a4, a4, t1
  ld   a5, 0(a4)
  xor  a5, a5, a3
  sd   a5, 0(a4)
  xor  s1, s1, a5
  ret
h_shift:
  slli a4, a2, 3
  add  a4, a4, t1
  ld   a5, 0(a4)
  andi a6, a3, 7
  sll  a5, a5, a6
  sd   a5, 0(a4)
  add  s1, s1, a5
  ret
h_loadi:
  slli a4, a2, 3
  add  a4, a4, t1
  sd   a3, 0(a4)
  ret
h_store:
  slli a4, a2, 3
  add  a4, a4, t1
  sd   s1, 0(a4)
  ret

  .data
  .align 8
toy_regs: .space 64
handlers: .dword h_add, h_xor, h_shift, h_loadi, h_store
)";
  DataTables tables;
  source += dword_table("toy_prog", toy_program, &tables);

  Workload workload;
  workload.name = "m88ksim";
  workload.mimics = "SPECint95 124.m88ksim (extension; not in the paper)";
  workload.description =
      "toy-machine interpreter with indirect jump-table dispatch";
  workload.program = assemble_or_die(source, "m88ksim_like", tables);
  return workload;
}

}  // namespace reese::workloads
