// Per-layer metrics for the traced run.
//
// Each probe times calls into one module's public functions from here, or
// reads the simulator's own exact statistics; nothing inside src/ is
// instrumented. Every probe runs on the run's generated inputs at the
// phase budgets, so its numbers describe the same work the phases time.
#include <algorithm>
#include <filesystem>
#include <map>
#include <numeric>

#include "bench.h"
#include "branch/predictor.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "core/stats.h"
#include "faults/injector.h"
#include "isa/iss.h"
#include "mem/hierarchy.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace reese;

namespace {

double ns_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::nano>(end - begin).count();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Thread-CPU nanoseconds since `cpu_begin` (a thread_cpu_s() reading): the
/// simulator-bound probes use the same clock as the end-to-end rates.
double cpu_ns_since(double cpu_begin) {
  return (thread_cpu_s() - cpu_begin) * 1e9;
}

/// Replay results land here so the compiler cannot drop the replays.
volatile u64 g_sink = 0;

/// One committed instruction of a program's functional stream: its fetch
/// address, its data address (loads and stores) and, for a conditional
/// branch, the direction it took.
struct StreamEntry {
  Addr pc = 0;
  Addr addr = 0;
  enum Kind : u8 { kOther, kLoad, kStore, kCondBranch } kind = kOther;
  bool taken = false;
};

/// Record `count` instructions through Iss::step_one plus the decoded
/// instruction at each pc.
std::vector<StreamEntry> record_stream(const isa::Program& program,
                                       u64 count) {
  std::vector<StreamEntry> stream;
  stream.reserve(count);
  isa::Iss iss(program);
  for (u64 i = 0; i < count; ++i) {
    const isa::ArchState& state = iss.state();
    if (!program.contains_pc(state.pc)) break;
    const isa::Instruction& inst = program.at(state.pc);
    StreamEntry entry;
    entry.pc = state.pc;
    if (isa::is_load(inst.op) || isa::is_store(inst.op)) {
      entry.addr = state.x(inst.rs1) + static_cast<u64>(inst.imm);
      entry.kind = isa::is_load(inst.op) ? StreamEntry::kLoad
                                         : StreamEntry::kStore;
    } else if (isa::is_cond_branch(inst.op)) {
      entry.kind = StreamEntry::kCondBranch;
    }
    if (!iss.step_one()) break;
    // A taken branch leaves the fall-through path (a branch to pc + 4 counts
    // as not taken, which no predictor can tell apart either).
    entry.taken = iss.state().pc != entry.pc + 4;
    stream.push_back(entry);
  }
  return stream;
}

/// Per-model aggregates of directly timed Figure 2 cells.
struct CellTotals {
  u64 committed = 0;
  u64 cycles = 0;
  double host_ns = 0.0;
  double ipc_sum = 0.0;
};

}  // namespace

std::vector<Metric> layer_metrics(const PhaseContext& ctx) {
  const Inputs& in = *ctx.inputs;
  const Samples& s = *ctx.samples;
  SpanLog* spans = ctx.spans;
  const std::vector<std::string>& programs = in.regime->programs;
  const u64 budget = in.grid.instructions;
  std::vector<Metric> out;
  const auto emit = [&](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };
  const auto probe_span = [&](const char* layer, const char* name,
                              Clock::time_point begin) {
    if (spans != nullptr) spans->record(layer, name, begin, Clock::now());
  };
  workloads::WorkloadOptions grid_options;
  grid_options.seed = in.grid.seed;

  // --- workloads: program generation ---------------------------------------
  Clock::time_point begin = Clock::now();
  std::vector<double> build_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& name : programs) {
      const Clock::time_point t0 = Clock::now();
      const auto workload = workloads::make_workload(name, grid_options);
      build_ms.push_back(ns_between(t0, Clock::now()) / 1e6);
    }
  }
  emit("workloads.build_ms", median(build_ms), "ms");
  probe_span("workloads", "make_workload", begin);

  // --- isa: the functional ceiling ----------------------------------------
  begin = Clock::now();
  u64 iss_executed = 0;
  double iss_ns = 0.0;
  for (const workloads::Workload& workload : in.programs) {
    isa::Iss iss(workload.program);
    const double t0 = thread_cpu_s();
    iss_executed += iss.run(budget).executed_instructions;
    iss_ns += cpu_ns_since(t0);
  }
  emit("isa.iss_kips", ratio(iss_executed, iss_ns) * 1e6, "kIPS");
  probe_span("isa", "Iss::run", begin);

  // --- mem and branch: replay each program's recorded streams ------------
  begin = Clock::now();
  u64 mem_accesses = 0;
  double mem_ns = 0.0;
  u64 branches = 0;
  double branch_ns = 0.0;
  u64 sink = 0;
  const core::CoreConfig base = core::starting_config();
  for (const workloads::Workload& workload : in.programs) {
    const std::vector<StreamEntry> stream =
        record_stream(workload.program, budget);
    mem::Hierarchy hierarchy(base.memory);
    double t0 = thread_cpu_s();
    for (const StreamEntry& entry : stream) {
      sink += hierarchy.inst_access(entry.pc);
      if (entry.kind == StreamEntry::kLoad ||
          entry.kind == StreamEntry::kStore) {
        sink += hierarchy.data_access(entry.addr,
                                      entry.kind == StreamEntry::kStore);
        ++mem_accesses;
      }
    }
    mem_ns += cpu_ns_since(t0);
    mem_accesses += stream.size();

    branch::GsharePredictor predictor(base.gshare_history_bits);
    t0 = thread_cpu_s();
    for (const StreamEntry& entry : stream) {
      if (entry.kind != StreamEntry::kCondBranch) continue;
      const branch::BranchPrediction prediction = predictor.predict(entry.pc);
      predictor.update(entry.pc, entry.taken, prediction.meta);
      if (prediction.taken != entry.taken) {
        predictor.repair(prediction.meta, entry.taken);
      }
      ++branches;
    }
    branch_ns += cpu_ns_since(t0);
    sink += predictor.checkpoint();
  }
  emit("mem.access_ns", ratio(mem_ns, static_cast<double>(mem_accesses)), "ns");
  emit("branch.predict_ns", ratio(branch_ns, static_cast<double>(branches)),
       "ns");
  probe_span("mem", "Hierarchy replay + predictor replay", begin);

  // --- core: every Figure 2 cell timed directly, with exact statistics ---
  begin = Clock::now();
  std::array<CellTotals, kModelCount> totals{};
  std::vector<double> extra_ns_per_inst;
  u64 dl1_access = 0, dl1_miss = 0, il1_access = 0, il1_miss = 0;
  u64 ul2_access = 0, ul2_miss = 0;
  u64 cond = 0, cond_miss = 0, dispatched = 0, wrongpath = 0;
  u64 reese_committed = 0, reese_committed_r = 0, rqueue_stalls = 0;
  u64 comparisons = 0;
  metrics::Registry cell_registry;
  for (usize w = 0; w < programs.size(); ++w) {
    std::array<double, kModelCount> ns_per_inst{};
    for (usize m = 0; m < kModelCount; ++m) {
      sim::Simulator simulator(in.programs[w], model_config(m));
      const double t0 = thread_cpu_s();
      const sim::SimResult r = simulator.run(budget);
      const double ns = cpu_ns_since(t0);
      ns_per_inst[m] = ratio(ns, static_cast<double>(r.committed));
      CellTotals& t = totals[m];
      t.committed += r.committed;
      t.cycles += r.cycles;
      t.host_ns += ns;
      t.ipc_sum += r.ipc;

      core::Pipeline& pipeline = simulator.pipeline();
      const core::CoreStats& stats = pipeline.stats();
      const mem::Hierarchy& h = pipeline.hierarchy();
      dl1_access += h.dl1().stats().accesses;
      dl1_miss += h.dl1().stats().misses;
      il1_access += h.il1().stats().accesses;
      il1_miss += h.il1().stats().misses;
      ul2_access += h.ul2().stats().accesses;
      ul2_miss += h.ul2().stats().misses;
      cond += stats.cond_branches_resolved;
      cond_miss += stats.cond_branch_mispredicts;
      dispatched += stats.dispatched;
      wrongpath += stats.wrongpath_dispatched;
      if (m == 1) {  // the "reese" column: full re-execution, no spares
        reese_committed += stats.committed;
        reese_committed_r += stats.committed_r;
        rqueue_stalls += stats.rqueue_full_stall_cycles;
        comparisons += stats.comparisons;
      }
      core::export_core_stats(&cell_registry, stats,
                              {{"workload", programs[w]},
                               {"model", model_key(m)}});
    }
    extra_ns_per_inst.push_back(ns_per_inst[1] - ns_per_inst[0]);
  }
  probe_span("core", "Figure 2 cells via Simulator::run", begin);

  emit("mem.dl1_miss_rate", ratio(dl1_miss, dl1_access), "ratio");
  emit("mem.il1_miss_rate", ratio(il1_miss, il1_access), "ratio");
  emit("mem.ul2_miss_rate", ratio(ul2_miss, ul2_access), "ratio");
  emit("branch.mispredict_rate", ratio(cond_miss, cond), "ratio");
  emit("core.dispatch_useful_ratio",
       ratio(static_cast<double>(dispatched - wrongpath), dispatched), "ratio");
  for (usize m = 0; m < kModelCount; ++m) {
    emit(format("core.cell_kips.%s", model_key(m)),
         ratio(totals[m].committed, totals[m].host_ns) * 1e6, "kIPS");
  }
  for (usize m = 0; m < kModelCount; ++m) {
    emit(format("core.host_ns_per_cycle.%s", model_key(m)),
         ratio(totals[m].host_ns, static_cast<double>(totals[m].cycles)), "ns");
  }
  emit("core.reese_extra_ns_per_inst", median(extra_ns_per_inst), "ns");
  emit("core.r_per_p", ratio(reese_committed_r, reese_committed), "ratio");
  emit("core.rqueue_full_stall_cycles", static_cast<double>(rqueue_stalls),
       "cycles");
  emit("core.comparisons", static_cast<double>(comparisons), "count");
  const double base_ipc = totals[0].ipc_sum / programs.size();
  for (usize m = 0; m < kModelCount; ++m) {
    emit(format("core.ipc.%s", model_key(m)),
         totals[m].ipc_sum / programs.size(), "IPC");
  }
  for (usize m = 1; m < kModelCount; ++m) {
    const double ipc = totals[m].ipc_sum / programs.size();
    emit(format("core.overhead_pct.%s", model_key(m)),
         ratio(base_ipc - ipc, base_ipc) * 100.0, "%");
  }

  // --- faults: one campaign cell with and without the injector -----------
  // Seven alternating pairs; the fastest of each side is its cost with the
  // least host interference, and the difference is the hook's.
  begin = Clock::now();
  {
    const sim::CampaignVariant& variant = in.campaign.variants[2];  // either
    std::vector<double> with_ns, without_ns;
    u64 committed = 0;
    for (int rep = 0; rep < 7; ++rep) {
      for (const bool hooked : {true, false}) {
        faults::InjectorConfig config;
        config.rate = in.campaign.rate;
        config.target = variant.target;
        config.seed = sim::derive_cell_seed(in.campaign.seed, 2, 0, 0);
        faults::Injector injector(config);
        sim::Simulator simulator(in.programs[0], variant.config);
        if (hooked) simulator.pipeline().set_fault_hook(&injector);
        const double t0 = thread_cpu_s();
        committed = simulator.run(budget).committed;
        (hooked ? with_ns : without_ns).push_back(cpu_ns_since(t0));
      }
    }
    emit("faults.injector_ns_per_inst",
         ratio(*std::min_element(with_ns.begin(), with_ns.end()) -
                   *std::min_element(without_ns.begin(), without_ns.end()),
               static_cast<double>(committed)),
         "ns");
  }
  probe_span("faults", "cell with and without the fault hook", begin);
  {
    sim::CampaignCell total;
    for (usize v = 0; v < s.campaign_result.spec.variants.size(); ++v) {
      total.merge(s.campaign_result.variant_total(v));
    }
    emit("faults.injected", static_cast<double>(total.injected), "count");
    emit("faults.detected", static_cast<double>(total.detected), "count");
    emit("faults.sdc", static_cast<double>(total.sdc), "count");
    emit("faults.coverage_loss", static_cast<double>(total.coverage_loss),
         "count");
    emit("faults.pending", static_cast<double>(total.pending), "count");
  }

  // --- sim.experiment: the slowest cell of the grid ----------------------
  double cell_ms_max = 0.0;
  for (const auto& per_model : s.cell_ref_s) {
    for (const std::vector<double>& passes : per_model) {
      cell_ms_max = std::max(cell_ms_max, trimmed_mean(passes) * 1e3);
    }
  }
  emit("sim.experiment.cell_ms_max", cell_ms_max, "ms");
  // The host speed the gated rates were scaled by (kReferenceProbeS).
  emit("host.probe_ms", trimmed_mean(s.probe_s) * 1e3, "ms");

  // --- sim.campaign: per-cell set-up and cell time at one worker ---------
  begin = Clock::now();
  {
    std::vector<double> setup_ms;
    for (usize w = 0; w < programs.size(); ++w) {
      const Clock::time_point t0 = Clock::now();
      workloads::WorkloadOptions options;  // as run_campaign seeds a cell
      options.seed =
          SplitMix64(sim::derive_cell_seed(in.campaign.seed, 0, w, 0)).next();
      sim::Simulator simulator(
          workloads::make_workload(programs[w], options).value(),
          in.campaign.variants[0].config);
      faults::InjectorConfig config;
      config.rate = in.campaign.rate;
      faults::Injector injector(config);
      simulator.pipeline().set_fault_hook(&injector);
      setup_ms.push_back(ns_between(t0, Clock::now()) / 1e6);
    }
    emit("sim.campaign.cell_setup_ms", median(setup_ms), "ms");

    sim::CampaignSpec spec = in.campaign;
    spec.jobs = 1;
    std::vector<double> cell_ms;
    Clock::time_point cell_begin = Clock::now();
    spec.progress = [&](const sim::ProgressUpdate&) {
      const Clock::time_point now = Clock::now();
      cell_ms.push_back(ns_between(cell_begin, now) / 1e6);
      cell_begin = now;
    };
    sim::run_campaign(spec);
    emit("sim.campaign.cell_ms_p50", percentile(cell_ms, 0.50), "ms");
    emit("sim.campaign.cell_ms_p99", percentile(cell_ms, 0.99), "ms");
  }
  probe_span("sim.campaign", "cells at one worker", begin);

  // --- sim.checkpoint: snapshot a REESE cell mid-run ---------------------
  begin = Clock::now();
  {
    const std::string path = ctx.out_dir + "/checkpoint-probe.snap";
    std::vector<double> save_ms, load_ms;
    double bytes = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      sim::Simulator running(in.programs[0], model_config(1));
      running.run(budget / 2);
      std::string error;
      Clock::time_point t0 = Clock::now();
      const bool saved = sim::save_snapshot(&running, path, &error);
      save_ms.push_back(ns_between(t0, Clock::now()) / 1e6);
      sim::Simulator restored(in.programs[0], model_config(1));
      t0 = Clock::now();
      const bool loaded = saved && sim::load_snapshot(&restored, path, &error);
      load_ms.push_back(ns_between(t0, Clock::now()) / 1e6);
      if (!loaded) ctx.checker->note_failure("checkpoint probe: " + error);
      std::error_code ec;
      bytes = static_cast<double>(std::filesystem::file_size(path, ec));
      std::filesystem::remove(path, ec);
    }
    emit("sim.checkpoint.save_ms", median(save_ms), "ms");
    emit("sim.checkpoint.load_ms", median(load_ms), "ms");
    emit("sim.checkpoint.bytes", bytes, "bytes");
  }
  probe_span("sim.checkpoint", "save_snapshot/load_snapshot", begin);

  // --- sim.service / common.http / common.json / common.metrics ----------
  const std::vector<std::string> kinds = {"submit",     "poll",
                                          "result_json", "result_csv",
                                          "stats",      "metrics"};
  for (const std::string& kind : kinds) {
    const auto it = s.rtt_us.find(kind);
    const std::vector<double> none;
    const std::vector<double>& rtt = it == s.rtt_us.end() ? none : it->second;
    emit("common.http.rtt_us." + kind + ".p50", percentile(rtt, 0.50), "us");
    emit("common.http.rtt_us." + kind + ".p99", percentile(rtt, 0.99), "us");
  }
  begin = Clock::now();
  {
    // The same requests fed straight to SimulationService::handle.
    log::Logger quiet;
    quiet.set_level(log::Level::kError);
    sim::ServiceConfig config;
    config.workers = 1;
    config.grid_jobs = 1;
    config.logger = &quiet;
    sim::SimulationService service(config);
    std::map<std::string, std::vector<double>> handle_us;
    // One request straight into the handler; returns the response and its
    // handling time in microseconds.
    const auto call = [&](const char* method, const std::string& path,
                          const std::string& body, bool csv, double* us) {
      http::Request request;
      request.method = method;
      request.path = path;
      if (csv) request.query["format"] = "csv";
      request.body = body;
      const Clock::time_point t0 = Clock::now();
      http::Response response = service.handle(request);
      *us = ns_between(t0, Clock::now()) / 1e3;
      return response;
    };
    // The service_mix sequence: submit, poll the result until it stops
    // answering 202, fetch the CSV; stats and metrics once per spec cycle.
    for (int round = 0; round < 4; ++round) {
      for (usize i = 0; i < in.job_bodies.size(); ++i) {
        double us = 0.0;
        const http::Response submitted = call(
            "POST", in.job_is_campaign[i] ? "/v1/campaigns" : "/v1/experiments",
            in.job_bodies[i], false, &us);
        handle_us["submit"].push_back(us);
        auto doc = json::parse_json(submitted.body);
        const json::Value* id = doc.ok() ? doc.value().find("id") : nullptr;
        if (submitted.status != 202 || id == nullptr || !id->is_integer) {
          ctx.checker->note_failure("handle probe: submit refused");
          continue;
        }
        const std::string path = format(
            "/v1/jobs/%llu/result",
            static_cast<unsigned long long>(id->uint_value));
        while (call("GET", path, "", false, &us).status == 202) {
          handle_us["poll"].push_back(us);
        }
        handle_us["result_json"].push_back(us);
        call("GET", path, "", true, &us);
        handle_us["result_csv"].push_back(us);
      }
      double us = 0.0;
      call("GET", "/v1/stats", "", false, &us);
      handle_us["stats"].push_back(us);
      call("GET", "/v1/metrics", "", false, &us);
      handle_us["metrics"].push_back(us);
    }
    for (const std::string& kind : kinds) {
      emit("sim.service.handle_us." + kind, median(handle_us[kind]), "us");
    }

    // common.metrics: Prometheus rendering of a registry holding the
    // service's series plus every Figure 2 cell's core statistics.
    sim::export_service_stats(&cell_registry, service.stats());
    std::vector<double> scrape_us;
    for (int rep = 0; rep < 20; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const std::string text = cell_registry.prometheus();
      scrape_us.push_back(ns_between(t0, Clock::now()) / 1e3);
      sink += text.size();
    }
    emit("common.metrics.scrape_us", median(scrape_us), "us");
    g_sink = sink;
    service.drain();
  }
  probe_span("sim.service", "SimulationService::handle without a socket",
             begin);
  for (Metric& metric : wall_metrics(s)) out.push_back(std::move(metric));
  emit("common.json.parse_us", median(s.parse_us), "us");
  emit("sim.service.result_bytes", median(s.result_bytes), "bytes");
  emit("sim.service.polls_per_job",
       ratio(static_cast<double>(s.polls),
             static_cast<double>(s.jobs_completed)),
       "count");

  // --- sim.fleet: the coordinator's own timeline slices -------------------
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  emit("sim.fleet.dispatch_ms", median(s.fleet_dispatch_ms), "ms");
  emit("sim.fleet.run_ms", median(s.fleet_run_ms), "ms");
  emit("sim.fleet.merge_ms", median(s.fleet_merge_ms), "ms");
  emit("sim.fleet.overhead_pct",
       ratio(sum(s.fleet_dispatch_ms) + sum(s.fleet_merge_ms),
             sum(s.fleet_run_ms)) *
           100.0,
       "%");
  emit("sim.fleet.wire_bytes",
       static_cast<double>(
           sim::serialize_campaign_matrix(s.campaign_result).size()),
       "bytes");
  return out;
}

}  // namespace perfbench
