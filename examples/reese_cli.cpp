// reese_sim: the full command-line simulator, SimpleScalar style.
//
//   $ ./build/examples/reese_cli -workload li -reese 1 -spare_alus 2
//       [-instr 500000 -ruu 32 -lsq 16 -rqueue 32 -pred gshare ...]
//
// Flags (all optional):
//   -config FILE       read flags from a config file (command line wins)
//   -workload NAME     workload to run (default gcc; see -list)
//   -list              list available workloads and exit
//   -instr N           committed-instruction budget (default 1000000, or
//                      $REESE_SIM_INSTR; sim::default_instruction_budget())
//   -reese 0|1         enable REESE (default 0 = baseline)
//   -spare_alus N      extra integer ALUs for the REESE model
//   -spare_mults N     extra integer mult/div units
//   -ruu N -lsq N      window sizes
//   -width N           fetch/decode/issue/commit width
//   -ports N           memory ports
//   -rqueue N          R-stream Queue entries
//   -kreexec N         re-execute 1 of every N instructions
//   -early 0|1         early release (default 1)
//   -minsep N          enforced minimum P->R separation
//                      (-rqueue, -kreexec, -early and -minsep only take
//                      effect with -reese 1)
//   -pred NAME         nottaken|taken|btfn|bimodal|gshare|local|tournament
//   -seed N            workload data seed
//   -fault_rate F      inject faults at rate F per instruction
//   -prelint 0|1       statically lint the workload program before running;
//                      refuse to start on error-severity findings
//   --trace-out FILE   write a Chrome trace_event JSON trace of the run
//                      (open in Perfetto / chrome://tracing; see
//                      tools/trace_check.py)
//   --trace-sample N   with --trace-out: trace every Nth instruction only
//                      (default 1 = all; keeps long runs tractable)
#include <cstdio>
#include <memory>
#include <string>

#include "common/flags.h"
#include "core/chrome_trace.h"
#include "faults/injector.h"
#include "sim/prelint.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace reese;

namespace {

bool pick_predictor(const std::string& name, branch::PredictorKind* out) {
  using branch::PredictorKind;
  const struct {
    const char* name;
    PredictorKind kind;
  } kTable[] = {
      {"nottaken", PredictorKind::kNotTaken}, {"taken", PredictorKind::kTaken},
      {"btfn", PredictorKind::kBtfn},         {"bimodal", PredictorKind::kBimodal},
      {"gshare", PredictorKind::kGshare},     {"local", PredictorKind::kLocal},
      {"tournament", PredictorKind::kTournament},
  };
  for (const auto& entry : kTable) {
    if (name == entry.name) {
      *out = entry.kind;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  core::CoreConfig config = core::starting_config();
  u32 width = config.issue_width;
  std::string pred;
  bool reese = false;
  u32 spare_alus = 0;
  u32 spare_mults = 0;
  std::string workload_name = "gcc";
  workloads::WorkloadOptions options;
  u64 instructions = sim::default_instruction_budget();
  faults::InjectorConfig fault_config;
  bool prelint = false;
  std::string trace_path;
  u64 trace_sample = 1;
  std::string config_path;
  bool list = false;

  FlagParser flags;
  flags.add("-config", &config_path);
  flags.add("-workload", &workload_name);
  flags.add("-list", &list);
  flags.add("-instr", &instructions);
  flags.add("-reese", &reese);
  flags.add("-spare_alus", &spare_alus);
  flags.add("-spare_mults", &spare_mults);
  flags.add("-ruu", &config.ruu_size);
  flags.add("-lsq", &config.lsq_size);
  flags.add("-width", &width);
  flags.add("-ports", &config.mem_port_count);
  flags.add("-rqueue", &config.reese.rqueue_size);
  flags.add("-kreexec", &config.reese.reexec_interval);
  flags.add("-early", &config.reese.early_release);
  flags.add("-minsep", &config.reese.min_separation);
  flags.add("-pred", &pred);
  flags.add("-seed", &options.seed);
  flags.add("-fault_rate", &fault_config.rate);
  flags.add("-prelint", &prelint);
  flags.add("--trace-out", &trace_path);
  flags.add("--trace-sample", &trace_sample);
  if (!flags.parse_or_report(argc, argv)) return 2;
  if (!config_path.empty()) {
    if (auto loaded = flags.parse_file(config_path); !loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.error().to_string().c_str());
      return 2;
    }
  }

  if (list) {
    std::printf("available workloads:\n");
    for (const std::string& name : workloads::all_workload_names()) {
      std::printf("  %s\n", name.c_str());
    }
    return 0;
  }

  config.fetch_width = config.decode_width = width;
  config.issue_width = config.commit_width = width;
  if (!pred.empty() && !pick_predictor(pred, &config.predictor)) {
    std::fprintf(stderr, "unknown predictor\n");
    return 2;
  }
  if (reese) config = core::with_reese(config, spare_alus, spare_mults);

  auto workload = workloads::make_workload(workload_name, options);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s (try -list)\n",
                 workload.error().to_string().c_str());
    return 2;
  }

  if (prelint) {
    const sim::PrelintResult lint =
        sim::prelint_program(workload.value().program);
    if (!lint.diagnostics.empty()) {
      std::fprintf(stderr, "%s",
                   render_diagnostics(lint.diagnostics, DiagFormat::kText,
                                      workload.value().name)
                       .c_str());
    }
    if (!lint.ok) {
      std::fprintf(stderr,
                   "prelint: refusing to simulate a malformed program\n");
      return 1;
    }
  }

  faults::Injector injector(fault_config);

  sim::Simulator simulator(std::move(workload).value(), config);
  if (fault_config.rate > 0.0) {
    simulator.pipeline().set_fault_hook(&injector);
  }

  std::unique_ptr<core::FileTraceSink> trace_sink;
  std::unique_ptr<core::ChromeTraceTracer> chrome_tracer;
  std::unique_ptr<core::SamplingTracer> sampling_tracer;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<core::FileTraceSink>(trace_path);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return 2;
    }
    chrome_tracer = std::make_unique<core::ChromeTraceTracer>(trace_sink.get());
    if (trace_sample > 1) {
      sampling_tracer = std::make_unique<core::SamplingTracer>(
          chrome_tracer.get(), trace_sample);
      simulator.pipeline().set_tracer(sampling_tracer.get());
    } else {
      simulator.pipeline().set_tracer(chrome_tracer.get());
    }
  }

  std::printf("workload: %s (%s)\n", simulator.workload().name.c_str(),
              simulator.workload().mimics.c_str());
  std::printf("config:   %s\n\n", config.summary().c_str());

  const sim::SimResult result = simulator.run(instructions);

  std::printf("%s", simulator.pipeline().report().c_str());
  if (fault_config.rate > 0.0) {
    std::printf("faults: injected %llu, detected %llu (%.1f%% coverage)\n",
                static_cast<unsigned long long>(injector.injected()),
                static_cast<unsigned long long>(injector.detected()),
                100.0 * injector.coverage());
  }
  if (chrome_tracer != nullptr) {
    chrome_tracer->finish();
    std::printf("trace:    %s (%llu events)\n", trace_path.c_str(),
                static_cast<unsigned long long>(
                    chrome_tracer->events_emitted()));
  }
  std::printf("stop reason: %s\n", core::stop_reason_name(result.stop));
  return 0;
}
