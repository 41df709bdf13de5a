// asm_runner: assemble and run an SRV assembly file from disk.
//
//   $ ./build/examples/asm_runner examples/asm/hello_sum.s
//   $ ./build/examples/asm_runner -reese 1 -trace 1 examples/asm/fib.s
//
// Runs the program on the golden ISS and (optionally, -pipeline 1, the
// default) on the cycle-accurate pipeline, printing OUT values, the final
// checksum and timing statistics. With -trace 1 every ISS instruction is
// disassembled as it executes (first 200 shown). With -prelint 1 the
// program is statically checked first (see tools/srv_lint.cpp) and
// error-severity findings abort the run.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/flags.h"
#include "core/pipeline.h"
#include "core/trace.h"
#include "isa/assembler.h"
#include "isa/executor.h"
#include "isa/iss.h"
#include "sim/prelint.h"

using namespace reese;

int main(int argc, char** argv) {
  bool reese = false;
  bool trace = false;
  bool prelint = false;
  bool run_pipeline = true;
  bool pipetrace = false;
  u64 trace_cap = 48;
  u64 max_instructions = 10'000'000;
  FlagParser flags;
  flags.add("-reese", &reese);
  flags.add("-trace", &trace);
  flags.add("-prelint", &prelint);
  flags.add("-pipeline", &run_pipeline);
  flags.add("-pipetrace", &pipetrace);
  flags.add("-tracecap", &trace_cap);
  flags.add("-instr", &max_instructions);
  flags.accept_operands();
  if (!flags.parse_or_report(argc, argv)) return 2;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: asm_runner [-reese 0|1] [-trace 0|1] file.s\n");
    return 2;
  }
  const std::string& path = flags.positional()[0];

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  auto assembled = isa::assemble(buffer.str());
  if (!assembled.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 assembled.error().to_string().c_str());
    return 1;
  }
  const isa::Program program = std::move(assembled).value();
  std::printf("assembled %zu instructions, %zu data bytes, entry 0x%llx\n",
              program.code.size(), program.data.size(),
              static_cast<unsigned long long>(program.entry));

  if (prelint) {
    const sim::PrelintResult lint = sim::prelint_program(program);
    if (!lint.diagnostics.empty()) {
      std::fprintf(stderr, "%s",
                   render_diagnostics(lint.diagnostics, DiagFormat::kText,
                                      path)
                       .c_str());
    }
    if (!lint.ok) {
      std::fprintf(stderr, "prelint: refusing to run a malformed program\n");
      return 1;
    }
  }

  isa::Iss iss(program);
  if (trace) {
    u64 shown = 0;
    u64 last_out_count = 0;
    while (shown < 200) {
      if (!program.contains_pc(iss.state().pc)) break;
      const isa::Instruction& inst = program.at(iss.state().pc);
      std::printf("  %06llx: %s\n",
                  static_cast<unsigned long long>(iss.state().pc),
                  isa::disassemble(inst).c_str());
      if (!iss.step_one()) break;
      if (iss.state().out_count != last_out_count) {
        last_out_count = iss.state().out_count;
        std::printf("  OUT -> hash now %016llx\n",
                    static_cast<unsigned long long>(iss.state().out_hash));
      }
      ++shown;
    }
    if (shown == 200) std::printf("  ... (trace capped at 200)\n");
  }
  const isa::IssResult result = iss.run(max_instructions);
  std::printf("ISS: %llu instructions, %llu OUTs, hash %016llx, %s\n",
              static_cast<unsigned long long>(result.executed_instructions),
              static_cast<unsigned long long>(result.out_count),
              static_cast<unsigned long long>(result.out_hash),
              result.halted ? "halted" : (result.bad_pc ? "BAD PC" : "budget"));

  if (run_pipeline) {
    core::CoreConfig config = core::starting_config();
    if (reese) config = core::with_reese(config, 2);
    core::Pipeline pipeline(program, config);
    // -pipetrace 1: collect the last N instruction lifecycles and print a
    // SimpleScalar-pipeview-style timeline after the run.
    core::TimelineTracer tracer(static_cast<usize>(trace_cap));
    if (pipetrace) pipeline.set_tracer(&tracer);
    pipeline.run(max_instructions, 64 * max_instructions);
    std::printf("\npipeline (%s):\n%s", config.summary().c_str(),
                pipeline.report().c_str());
    if (pipetrace) {
      std::printf("\npipeline timeline (last %zu instructions; DS=dispatch "
                  "IS=issue WB=writeback RI=r-issue RC=compare CT=commit):\n%s",
                  tracer.rows().size(), tracer.to_string().c_str());
    }
    if (pipeline.arch_state().out_hash != result.out_hash) {
      std::printf("WARNING: pipeline/ISS hash mismatch!\n");
      return 1;
    }
  }
  return 0;
}
