// Floating-point workload kernels — the paper's untried territory.
//
// §5.2: "We did not study floating point (FP) programs." These two
// SPECfp95-flavoured kernels let the extension bench (ext_fp_workloads)
// answer the obvious follow-up: what does REESE cost on FP code, and is
// the spare hardware it needs FP adders rather than integer ALUs?
#include <bit>
#include <vector>

#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese::workloads {

// swim stand-in: a 2-D shallow-water-style 5-point stencil over a 32x32
// double grid. FP adder traffic dominates; branches are loop-only and
// perfectly predictable; loads stream through the grid rows.
Workload make_swim_like(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0x5817);
  const unsigned n = 32;
  std::vector<u64> grid_u(n * n);
  std::vector<u64> grid_v(n * n);
  for (u64& value : grid_u) {
    value = std::bit_cast<u64>(1.0 + rng.next_double());
  }
  for (u64& value : grid_v) {
    value = std::bit_cast<u64>(0.5 * rng.next_double());
  }

  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# kernel(a0 = iteration): one Jacobi sweep of
#   unew = 0.25*(N + S + W + E) - c*v, written back in place (interior).
kernel:
  la   t0, grid_u
  la   t1, grid_v
  li   t2, 1              # quarter = 0.25, built via 1.0 / 4.0
  fcvt.d.l ft0, t2
  li   t2, 4
  fcvt.d.l ft1, t2
  fdiv ft0, ft0, ft1      # 0.25
  li   t2, 10             # c = 0.1
  fcvt.d.l ft1, t2
  li   t3, 1
  fcvt.d.l ft2, t3
  fdiv ft1, ft2, ft1      # 0.1

  li   t3, 1              # row 1..30
sw_row:
  li   t4, 1              # col 1..30
sw_col:
  slli t5, t3, 8          # &u[row][col] = u + (row*32 + col)*8
  slli a1, t4, 3
  add  t5, t5, a1
  add  t5, t5, t0
  fld  ft3, -256(t5)      # north (row-1)
  fld  ft4, 256(t5)       # south
  fld  ft5, -8(t5)        # west
  fld  ft6, 8(t5)         # east
  fadd ft3, ft3, ft4
  fadd ft5, ft5, ft6
  fadd ft3, ft3, ft5
  fmul ft3, ft3, ft0      # * 0.25
  slli a2, t3, 8          # &v[row][col]
  slli a3, t4, 3
  add  a2, a2, a3
  add  a2, a2, t1
  fld  ft7, 0(a2)
  fmul ft7, ft7, ft1      # c*v
  fsub ft3, ft3, ft7
  fsd  ft3, 0(t5)
  addi t4, t4, 1
  li   a1, 31
  blt  t4, a1, sw_col
  addi t3, t3, 1
  blt  t3, a1, sw_row

  # checksum: scale a mid-grid sample and publish the integer part.
  la   t0, grid_u
  fld  ft3, 4104(t0)      # u[16][1]
  li   t2, 1000000
  fcvt.d.l ft4, t2
  fmul ft3, ft3, ft4
  fcvt.l.d t5, ft3
  out  t5
  ret

  .data
)";
  DataTables tables;
  source += dword_table("grid_u", grid_u, &tables);
  source += dword_table("grid_v", grid_v, &tables);

  Workload workload;
  workload.name = "swim";
  workload.mimics = "SPECfp95 102.swim (extension; not in the paper)";
  workload.description = "5-point double-precision stencil over a 32x32 grid";
  workload.program = assemble_or_die(source, "swim_like", tables);
  return workload;
}

// tomcatv stand-in: per-point normalization with sqrt and divide — the
// unpipelined FP unit is the star. Serial-ish chains keep FP latency
// exposed.
Workload make_tomcatv_like(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0x70C47);
  std::vector<u64> xs(512);
  std::vector<u64> ys(512);
  for (u64& value : xs) {
    value = std::bit_cast<u64>(1.0 + rng.next_double());
  }
  for (u64& value : ys) {
    value = std::bit_cast<u64>(1.0 + rng.next_double());
  }

  std::string source = program_shell("kernel", options.iterations);
  source += R"(
# kernel(a0 = iteration): normalize every (x, y) onto the unit circle and
# nudge it — r = sqrt(x^2 + y^2); x = x/r + eps; y = y/r.
kernel:
  la   t0, xs
  la   t1, ys
  li   t2, 512
  li   t3, 100
  fcvt.d.l ft5, t3
  li   t3, 1
  fcvt.d.l ft6, t3
  fdiv ft6, ft6, ft5      # eps = 0.01
tc_loop:
  fld  ft0, 0(t0)
  fld  ft1, 0(t1)
  fmul ft2, ft0, ft0
  fmul ft3, ft1, ft1
  fadd ft2, ft2, ft3
  fsqrt ft2, ft2
  fdiv ft0, ft0, ft2
  fdiv ft1, ft1, ft2
  fadd ft0, ft0, ft6
  fsd  ft0, 0(t0)
  fsd  ft1, 0(t1)
  addi t0, t0, 8
  addi t1, t1, 8
  addi t2, t2, -1
  bnez t2, tc_loop

  fld  ft0, -8(t0)        # last x
  li   t3, 1000000
  fcvt.d.l ft4, t3
  fmul ft0, ft0, ft4
  fcvt.l.d t5, ft0
  out  t5
  ret

  .data
)";
  DataTables tables;
  source += dword_table("xs", xs, &tables);
  source += dword_table("ys", ys, &tables);

  Workload workload;
  workload.name = "tomcatv";
  workload.mimics = "SPECfp95 101.tomcatv (extension; not in the paper)";
  workload.description =
      "per-point sqrt/divide normalization over 512 double pairs";
  workload.program = assemble_or_die(source, "tomcatv_like", tables);
  return workload;
}

}  // namespace reese::workloads
