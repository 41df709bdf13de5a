// ijpeg stand-in: blocked integer transform + quantization.
//
// ijpeg spends its time in dense, highly-predictable loop nests doing
// integer butterflies and multiplies over 8x8 pixel blocks. This kernel
// runs a 1-D DCT-flavoured butterfly (adds/subs, two fixed-point multiplies
// per row) plus quantization over every 8x8 block of a 64x64 greyscale
// image baked into .data. High ILP, predictable branches, moderate
// multiplier pressure — the opposite end of the spectrum from go.
#include <vector>

#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese::workloads {

Workload make_ijpeg_like(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0x13E6);

  std::vector<u8> image(64 * 64);
  for (u8& pixel : image) pixel = static_cast<u8>(rng.next_below(256));

  std::string source;
  source += program_shell("kernel", options.iterations);
  source += R"(
# kernel(a0 = iteration): perturb one pixel, transform + quantize all
# 8x8 blocks of the 64x64 image.
kernel:
  la   t0, image
  li   t2, 97               # mutate pixel (a0*97+13) & 4095
  mul  t1, a0, t2
  addi t1, t1, 13
  andi t1, t1, 4095
  add  t1, t1, t0
  lbu  t2, 0(t1)
  addi t2, t2, 31
  andi t2, t2, 255
  sb   t2, 0(t1)

  li   t6, 0                # checksum
  li   t3, 0                # block row
block_row:
  li   t4, 0                # block col
block_col:
  slli a1, t3, 9            # base = image + brow*8*64 + bcol*8
  slli a2, t4, 3
  add  a1, a1, a2
  add  a1, a1, t0
  li   a2, 8                # pixel rows in block
pixel_row:
  lbu  a3, 0(a1)
  lbu  a4, 7(a1)
  add  a5, a3, a4           # acc1 = p0+p7
  lbu  a6, 1(a1)
  lbu  a7, 6(a1)
  add  a6, a6, a7           # acc2 = p1+p6
  lbu  a7, 2(a1)
  lbu  t5, 5(a1)
  add  a7, a7, t5           # acc3 = p2+p5
  lbu  t5, 3(a1)
  lbu  t2, 4(a1)
  add  t5, t5, t2           # acc4 = p3+p4
  add  t2, a5, a6
  add  t2, t2, a7
  add  t2, t2, t5           # DC term
  sub  a5, a5, t5           # acc1-acc4
  sub  a6, a6, a7           # acc2-acc3
  li   a3, 181              # ~cos(pi/4) in Q7
  mul  a5, a5, a3
  li   a3, 59               # ~sin(3pi/8)-ish in Q7
  mul  a6, a6, a3
  add  a5, a5, a6
  srai a5, a5, 7            # first AC term
  # Adaptive quantization + zig-zag coding (rate control): the quantizer
  # step and coding order for this row depend on the running activity
  # accumulator — two dependent table loads, the loop-carried feedback real
  # encoders have between rate control and entropy coding.
  andi a4, t6, 7
  slli a4, a4, 3
  la   a3, qtable
  add  a4, a4, a3
  ld   a4, 0(a4)
  la   a3, zigzag
  andi t5, a4, 7
  slli t5, t5, 3
  add  t5, t5, a3
  ld   t5, 0(t5)
  add  a4, a4, t5
  add  a4, a4, a5
  srai t2, t2, 3            # quantized DC
  add  t6, t6, t2
  xor  t6, t6, a4
  addi a1, a1, 64           # next pixel row
  addi a2, a2, -1
  bnez a2, pixel_row
  addi t4, t4, 1
  li   a2, 8
  blt  t4, a2, block_col
  addi t3, t3, 1
  blt  t3, a2, block_row
  out  t6
  ret

  .data
)";
  DataTables tables;
  source += byte_table("image", image, &tables);
  std::vector<u64> qtable;
  for (unsigned i = 0; i < 8; ++i) qtable.push_back(1 + rng.next_below(15));
  source += dword_table("qtable", qtable, &tables);
  std::vector<u64> zigzag;
  for (unsigned i = 0; i < 8; ++i) zigzag.push_back(rng.next_below(64));
  source += dword_table("zigzag", zigzag, &tables);

  Workload workload;
  workload.name = "ijpeg";
  workload.mimics = "SPECint95 132.ijpeg (specmun)";
  workload.description =
      "8x8 integer DCT-style transform + quantization over a 64x64 image";
  workload.program = assemble_or_die(source, "ijpeg_like", tables);
  return workload;
}

}  // namespace reese::workloads
