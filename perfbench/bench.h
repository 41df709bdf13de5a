// Shared declarations of the repository benchmark (reese_perfbench).
//
// One run executes the four phases of the REESE path against one input
// regime (the --workload argument): the Figure 2 grid, a fault
// campaign, a closed-loop reesed job mix over loopback HTTP, and the same
// campaign sharded over an in-process two-worker fleet. See README.md for
// the metric vocabulary and why each phase exists.
#pragma once

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/http.h"
#include "common/log.h"
#include "common/types.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/service.h"
#include "workloads/workload.h"

namespace perfbench {

using reese::u32;
using reese::u64;
using reese::usize;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// CPU seconds used so far by the calling thread / by the whole process.
/// In a guest with paravirtual steal-time accounting (KVM) these leave out
/// the time the host took the vCPU away, which on a shared host swings a
/// run's wall-clock figures by up to 3x; the end-to-end rates use them.
double thread_cpu_s();
double process_cpu_s();

/// The host-speed probe: thread-CPU seconds of a fixed pointer chase
/// through a 32 KB and a 256 KB random cycle, which stay in the L1 and L2
/// caches. On a shared host CPU time is not steady either: the simulator's
/// CPU time per pass moved by up to 2x with the host's state, and this
/// latency-bound chase slows with it, while a plain ALU loop or a chase
/// through DRAM barely moves. The gated rates are scaled by it.
double host_probe_s();
/// host_probe_s() on a quiet host: the speed the gated rates are scaled to.
inline constexpr double kReferenceProbeS = 5.6e-3;

// --- inputs ------------------------------------------------------------------

/// The --workload axis: which programs every phase runs.
struct Regime {
  std::string name;
  std::vector<std::string> programs;
};

/// nullptr for an unknown name.
const Regime* find_regime(const std::string& name);

/// kFull is the measured configuration; kTiny shrinks every budget so the
/// benchmark's own tests finish in seconds.
enum class Scale { kFull, kTiny };

const char* scale_name(Scale scale);

struct Budgets {
  u64 grid_instructions = 0;      ///< per Figure 2 cell (and Franklin cell)
  u64 campaign_instructions = 0;  ///< per campaign cell
  u32 campaign_replicas = 0;
  double campaign_rate = 0.0;
  u64 job_instructions = 0;           ///< service experiment jobs
  u64 job_campaign_instructions = 0;  ///< service campaign jobs
  int setups_per_round = 0;  ///< set-ups timed after each round
};

Budgets budgets_for(Scale scale);

/// The models of Figure 2 plus the Franklin dual-execution column, in
/// report order. Index kFranklin is not a sim::Model.
inline constexpr usize kModelCount = 6;
inline constexpr usize kFranklin = 5;
const char* model_key(usize model_index);  ///< "baseline" ... "franklin"
reese::core::CoreConfig model_config(usize model_index);

/// Everything a run feeds the program, generated from the seed alone.
struct Inputs {
  const Regime* regime = nullptr;
  Scale scale = Scale::kFull;
  Budgets budgets;
  /// The regime's programs, built with the grid's data seed.
  std::vector<reese::workloads::Workload> programs;
  reese::sim::ExperimentSpec grid;      ///< the five standard models
  reese::sim::CampaignSpec campaign;    ///< fault campaign (2 workers)
  std::vector<std::string> job_bodies;  ///< service job specs (JSON)
  std::vector<bool> job_is_campaign;
};

Inputs make_inputs(const Regime& regime, Scale scale, u64 seed);

/// FNV-1a digest of the generated inputs (program images and specs), so
/// tests can show the seed reaches them.
u64 inputs_digest(const Inputs& inputs);

u64 fnv1a(std::string_view bytes, u64 hash = 0xcbf29ce484222325ULL);

// --- tracing -----------------------------------------------------------------

/// In-memory span store for the traced run. Spans are recorded by the
/// benchmark around its calls into each module; nothing inside the
/// simulator is instrumented. Written as a Chrome trace at exit.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Allocate a span id before the span ends, so children recorded first
  /// can name it as their parent.
  u64 reserve();
  /// Record a finished span; `id` 0 allocates a fresh one. Returns the id.
  u64 record(const std::string& layer, const std::string& name,
             Clock::time_point begin, Clock::time_point end, u64 parent = 0,
             u64 id = 0);
  bool write_chrome_trace(const std::string& path) const;
  usize size() const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    double begin_us = 0.0;
    double end_us = 0.0;
    u64 id = 0;
    u64 parent = 0;
  };
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards spans_ and next_id_
  std::vector<Span> spans_;
  u64 next_id_ = 1;
};

// --- correctness ---------------------------------------------------------

/// Committed reference outputs, keyed "<regime> <scale> <seed> <item>".
class References {
 public:
  bool load(const std::string& path, std::string* error);
  /// nullptr when no reference was recorded for the key.
  const std::string* find(const std::string& key) const;
  /// Corrupt one entry of `prefix` (the check-can-fail test).
  bool perturb(const std::string& prefix);
  bool has_prefix(const std::string& prefix) const;

 private:
  std::map<std::string, std::string> entries_;
};

/// Compares every output against the committed reference for the seed (when
/// one exists) and against the first output of the same item in this run.
class Checker {
 public:
  Checker(const References* references, std::string key_prefix)
      : references_(references), prefix_(std::move(key_prefix)) {}

  /// True when `value` matches; a mismatch is logged to stderr.
  bool check(const std::string& item, const std::string& value);
  void note_failure(const std::string& what);

  u64 reference_checks() const { return reference_checks_; }
  u64 mismatches() const { return mismatches_; }
  const std::map<std::string, std::string>& observed() const {
    return first_;
  }

 private:
  const References* references_;
  std::string prefix_;
  std::map<std::string, std::string> first_;
  u64 reference_checks_ = 0;
  u64 mismatches_ = 0;
};

// --- the environment: services listening on loopback ---------------------

/// A SimulationService behind an http::Server on an ephemeral loopback
/// port, exactly what reesed runs; stops and joins on destruction.
class Daemon {
 public:
  explicit Daemon(const reese::sim::ServiceConfig& config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool listening() const { return listening_; }
  reese::u16 port() const { return server_.port(); }

 private:
  reese::log::Logger logger_;
  reese::sim::SimulationService service_;
  reese::http::Server server_;
  bool listening_ = false;
  std::thread thread_;  ///< declared last: joined before the rest dies
};

struct Environment {
  std::unique_ptr<Daemon> reesed;                   ///< service_mix target
  std::vector<std::unique_ptr<Daemon>> fleet;       ///< two fleet workers
  std::unique_ptr<reese::http::Client> client;      ///< keep-alive client
  reese::log::Logger fleet_logger;
  reese::sim::fleet::FleetConfig fleet_config;
};

/// Construct the services, listen, and prove each answers /v1/healthz.
/// nullptr (with a message on stderr) when any of that fails.
std::unique_ptr<Environment> make_environment();

// --- phases ------------------------------------------------------------------

/// Per-run sample store shared by the phases and the report.
struct Samples {
  /// host_probe_s() before each grid pass, on the pass's CPU. CPU times
  /// named *_ref_s are scaled by their round's probe to the reference host
  /// speed: multiplied by to_reference().
  std::vector<double> probe_s;
  double to_reference() const { return kReferenceProbeS / probe_s.back(); }
  // fig2_grid: wall seconds and reference-scaled thread-CPU seconds per pass
  std::vector<double> grid_pass_s;
  std::vector<double> grid_pass_ref_s;
  std::array<u64, kModelCount> model_committed{};
  /// cell_ref_s[program][model] = reference-scaled thread-CPU s per pass.
  std::vector<std::vector<std::vector<double>>> cell_ref_s;
  // fault_campaign / fleet_campaign: wall and reference-scaled process-CPU
  // seconds per op
  std::vector<double> campaign_op_s;
  std::vector<double> campaign_op_ref_s;
  u64 campaign_injections = 0;
  std::vector<double> fleet_op_s;
  std::vector<double> fleet_op_ref_s;
  u64 fleet_injections = 0;
  /// Per round: the single-node campaign's median wall time over the
  /// fleet's, i.e. the fleet's wall-clock rate as a share of single-node.
  std::vector<double> fleet_wall_ratio;
  bool have_campaign_result = false;
  reese::sim::CampaignResult campaign_result;  ///< first campaign op
  std::vector<double> fleet_dispatch_ms, fleet_run_ms, fleet_merge_ms;
  // service_mix
  std::vector<double> job_ms;
  std::vector<double> fetch_ms;
  std::map<std::string, std::vector<double>> rtt_us;  ///< by request kind
  std::vector<double> parse_us;
  std::vector<double> result_bytes;
  u64 jobs_completed = 0;
  u64 polls = 0;
  double service_s = 0.0;
  // operations
  u64 attempted = 0;
  u64 failed = 0;
};

struct PhaseContext {
  const Inputs* inputs = nullptr;
  Environment* env = nullptr;
  Checker* checker = nullptr;
  SpanLog* spans = nullptr;  ///< null in untraced runs
  Samples* samples = nullptr;
  std::string out_dir;  ///< scratch files (checkpoint probe, span trace)
};

/// One Figure 2 grid pass, Franklin column included.
void run_fig2_pass(const PhaseContext& ctx);
/// The other phases run whole operations until `seconds` have elapsed (at
/// least one), appending to ctx.samples.
void run_fault_campaign(const PhaseContext& ctx, double seconds);
void run_service_mix(const PhaseContext& ctx, double seconds);
void run_fleet_campaign(const PhaseContext& ctx, double seconds);

// --- report ------------------------------------------------------------------

/// Nearest-rank percentile of `values` (fraction in [0, 1]); 0 when empty.
double percentile(std::vector<double> values, double fraction);
double median(const std::vector<double>& values);
/// Mean of the middle 80% of `values` (all of them when fewer than ten);
/// 0 when empty. Host speed on a shared machine flips between states, and
/// a median jumps between them as their mix shifts; this follows the mix
/// smoothly and still drops the few samples a stall blew up.
double trimmed_mean(const std::vector<double>& values);
/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it
/// (0 when even p50 has fewer).
double tail_fraction(usize samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `total` work spread evenly over identical operations, divided by the
/// trimmed mean operation time.
double per_op_rate(u64 total, const std::vector<double>& op_s);

/// The end-to-end metrics of one run (tracing off), in BENCHMARK.json order.
std::vector<Metric> end_to_end_metrics(const Samples& samples,
                                       double setup_s, double peak_rss_mb);

/// Wall-clock figures: the grid pass and campaign rates in wall time, and
/// service_mix's latencies and throughput. They are per-layer, not
/// end-to-end, metrics: on a shared host their run-to-run spread (up to 3x
/// when the host takes vCPUs away) exceeds any usable bound.
std::vector<Metric> wall_metrics(const Samples& samples);

/// Per-layer probes for the traced run (probes.cpp): time calls into each
/// module directly and read the simulator's exact statistics.
std::vector<Metric> layer_metrics(const PhaseContext& ctx);

}  // namespace perfbench
