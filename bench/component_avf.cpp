// Per-component AVF tables: where do soft errors actually land, and what
// does REESE catch there?
//
// The classic campaigns (fault_coverage, A5) flip instruction *results* —
// the paper's §2 error model. This bench widens the lens to the structures
// themselves (DESIGN.md §16): RUU entries, the R-stream Queue (REESE's own
// checker state), LSQ address fields, predictor/BTB bits and D-L1/D-TLB
// lines each get their own campaign variant, and every strike resolves to
// masked/detected/SDC with the static PC that owned the corrupted state.
// Detection and AVF rates carry Wilson-score 95% intervals.
//
// The headline row is reese@rqueue: injections into the checker itself.
// Result flips are ~fully detected (§4.2); R-queue strikes are a mix of
// false-positive detections (corrupt operand copies), silently-lost
// re-executions (coverage_loss) and — for the stored result after its
// comparison window — silent corruption. The bench gates on that gap:
// R-queue detection must sit measurably below result-flip detection.
//
// Cross-validation: a second campaign injects RUU strikes into the
// assembled examples/srv programs and joins measured per-PC SDC counts
// against the static srv-vuln ace_score ranking (Spearman rho, reported
// per program; informational, not gated — RUU slot occupancy decouples
// strike frequency from the static frequency model more than result flips
// do).
//
// Usage: component_avf [--quick] [--jobs N] [--replicas N]
//                      [--instructions N] [--rate R] [--seed S]
//                      [--out PATH] [--skip-xval]
//
//   --quick          CI mode: 1 replica, 20k instructions per cell
//   --jobs N         worker threads (default: auto; REESE_JOBS honoured)
//   --rate R         per-cycle strike probability (default 5e-3)
//   --out PATH       report path (default: BENCH_cavf.json in the CWD)
//   --skip-xval      skip the srv-vuln cross-validation campaign
//
// Output: reese-cavf-v1 JSON. Exit 1 when a gate fails or the report
// cannot be written.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/vuln.h"
#include "common/json.h"
#include "common/flags.h"
#include "common/strutil.h"
#include "isa/assembler.h"
#include "sim/campaign.h"

using namespace reese;
namespace fs = std::filesystem;

namespace {

struct SiteRow {
  std::string label;
  std::string base;
  const char* site = "";
  u64 injected = 0;
  u64 detected = 0;
  u64 masked = 0;
  u64 sdc = 0;
  u64 coverage_loss = 0;
  double detection = 0.0;  ///< detected / injected
  WilsonInterval detection_ci;
  double avf = 0.0;  ///< (detected + sdc) / injected: architecturally visible
  WilsonInterval avf_ci;
  double mean_latency = 0.0;
  /// Root-cause attribution: the static PCs that owned the most strikes.
  struct TopPc {
    Addr pc = 0;
    u64 injected = 0;
    u64 detected = 0;
    u64 sdc = 0;
  };
  std::vector<TopPc> top_pcs;
};

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

struct XvalRow {
  std::string name;
  usize joined_pcs = 0;
  u64 injected = 0;
  u64 sdc = 0;
  double rho_sdc = 0.0;  ///< static ace_score vs measured per-PC SDC count
};

SiteRow make_row(const sim::CampaignResult& result, usize variant_index) {
  const sim::CampaignVariant& variant = result.spec.variants[variant_index];
  const sim::CampaignCell total = result.variant_total(variant_index);
  SiteRow row;
  row.label = variant.label;
  const usize at = variant.label.find('@');
  row.base = at == std::string::npos ? variant.label
                                     : variant.label.substr(0, at);
  row.site = core::fault_site_name(variant.site);
  row.injected = total.injected;
  row.detected = total.detected;
  row.masked = total.masked;
  row.sdc = total.sdc;
  row.coverage_loss = total.coverage_loss;
  row.detection = safe_ratio(total.detected, total.injected);
  row.detection_ci = wilson_interval(total.detected, total.injected);
  row.avf = safe_ratio(total.detected + total.sdc, total.injected);
  row.avf_ci = wilson_interval(total.detected + total.sdc, total.injected);
  row.mean_latency = safe_ratio(total.latency_sum, total.latency_count);

  std::vector<SiteRow::TopPc> pcs;
  for (const auto& [pc, stratum] : total.by_pc) {
    pcs.push_back({pc, stratum.injected, stratum.detected,
                   stratum.undetected});
  }
  std::sort(pcs.begin(), pcs.end(),
            [](const SiteRow::TopPc& a, const SiteRow::TopPc& b) {
              if (a.injected != b.injected) return a.injected > b.injected;
              return a.pc < b.pc;
            });
  if (pcs.size() > 3) pcs.resize(3);
  row.top_pcs = std::move(pcs);
  return row;
}

sim::CampaignVariant variant_or_die(const std::string& label) {
  sim::CampaignVariant variant;
  if (!sim::campaign_variant_by_label(label, &variant)) {
    std::fprintf(stderr, "component_avf: unresolvable variant \"%s\"\n",
                 label.c_str());
    std::exit(1);
  }
  return variant;
}

}  // namespace

int main(int argc, char** argv) {
  sim::CampaignSpec spec;
  spec.rate = 5e-3;
  spec.seed = 0xCAFC0DE5;
  bool quick = false;
  bool skip_xval = false;
  std::string out_path = "BENCH_cavf.json";

  FlagParser flags;
  flags.add("--quick", &quick);
  flags.add("--jobs", &spec.jobs);
  flags.add("--replicas", &spec.replicas);
  flags.add("--instructions", &spec.instructions);
  flags.add("--rate", &spec.rate);
  flags.add("--seed", &spec.seed);
  flags.add("--out", &out_path);
  flags.add("--skip-xval", &skip_xval);
  if (!flags.parse_or_report(argc, argv)) return 2;
  // This bench resolves its own quick mode (CampaignSpec::quick would also
  // clamp replicas after --replicas was parsed).
  if (spec.replicas == 12) spec.replicas = quick ? 1 : 8;
  if (spec.instructions == 0) spec.instructions = quick ? 20'000 : 60'000;

  // One reference row (the classic result-flip model, via the same label
  // machinery the service/fleet wire uses) + the seven component sites
  // under REESE + the baseline rows that ground-truth the sites REESE
  // cannot see at all.
  const std::vector<std::string> labels = {
      "reese@result",    "reese@ruu",     "reese@rqueue", "reese@lsq",
      "reese@predictor", "reese@btb",     "reese@dcache", "reese@dtlb",
      "baseline@ruu",    "baseline@lsq",  "baseline@dcache",
      "baseline@dtlb"};
  for (const std::string& label : labels) {
    spec.variants.push_back(variant_or_die(label));
  }

  std::printf("Component AVF: %zu variants x 6 workloads x %u replicas "
              "(%llu instr/cell, rate %.0e)\n",
              labels.size(), spec.replicas,
              static_cast<unsigned long long>(spec.instructions), spec.rate);
  const sim::CampaignResult result = sim::run_campaign(spec);

  std::vector<SiteRow> rows;
  for (usize v = 0; v < result.spec.variants.size(); ++v) {
    rows.push_back(make_row(result, v));
  }

  std::printf("  %-18s %9s %9s %9s %7s %8s  %9s %-19s %6s\n", "variant",
              "injected", "detected", "masked", "sdc", "cov_loss",
              "detection", "wilson95", "avf");
  for (const SiteRow& row : rows) {
    std::printf("  %-18s %9llu %9llu %9llu %7llu %8llu  %8.3f%% "
                "[%6.3f%%,%7.3f%%] %5.3f\n",
                row.label.c_str(),
                static_cast<unsigned long long>(row.injected),
                static_cast<unsigned long long>(row.detected),
                static_cast<unsigned long long>(row.masked),
                static_cast<unsigned long long>(row.sdc),
                static_cast<unsigned long long>(row.coverage_loss),
                100.0 * row.detection, 100.0 * row.detection_ci.lower,
                100.0 * row.detection_ci.upper, row.avf);
  }

  const auto row_by_label = [&rows](const std::string& label) -> SiteRow& {
    for (SiteRow& row : rows) {
      if (row.label == label) return row;
    }
    std::fprintf(stderr, "component_avf: missing row %s\n", label.c_str());
    std::exit(1);
  };
  const SiteRow& reference = row_by_label("reese@result");
  const SiteRow& rqueue = row_by_label("reese@rqueue");
  const SiteRow& predictor = row_by_label("reese@predictor");
  const SiteRow& btb = row_by_label("reese@btb");
  const SiteRow& baseline_ruu = row_by_label("baseline@ruu");

  std::vector<Check> checks;
  {
    usize covered = 0;
    for (const SiteRow& row : rows) {
      if (row.base == "reese" && std::strcmp(row.site, "result") != 0 &&
          row.injected > 0) {
        ++covered;
      }
    }
    checks.push_back({"sites_covered", covered >= 5,
                      format("%zu/7 component sites saw injections under "
                             "REESE (need >= 5)",
                             covered)});
  }
  checks.push_back(
      {"rqueue_detection_gap",
       rqueue.detection < reference.detection - 0.10,
       format("reese@rqueue detection %.3f vs reese@result %.3f: the "
              "checker does not protect its own state (need a >= 10pp gap)",
              rqueue.detection, reference.detection)});
  checks.push_back(
      {"rqueue_coverage_loss", rqueue.coverage_loss > 0,
       format("%llu re-executions silently killed by R-queue control-state "
              "strikes (need > 0)",
              static_cast<unsigned long long>(rqueue.coverage_loss))});
  checks.push_back(
      {"frontend_masked",
       predictor.detected == 0 && predictor.sdc == 0 && btb.detected == 0 &&
           btb.sdc == 0,
       "predictor/BTB strikes are architecturally masked (AVF 0 controls)"});
  checks.push_back(
      {"baseline_ruu_sdc", baseline_ruu.sdc > 0,
       format("baseline RUU strikes reach architectural state (%llu SDC)",
              static_cast<unsigned long long>(baseline_ruu.sdc))});

  // Cross-validation against the static srv-vuln ranking: strike RUU slots
  // while the assembled examples/srv programs run, and rank-correlate the
  // measured per-PC SDC counts with the static ace_score.
  std::vector<XvalRow> xval;
  if (!skip_xval) {
    sim::CampaignSpec xspec;
    xspec.rate = spec.rate;
    xspec.seed = spec.seed ^ 0x5EED;
    xspec.jobs = spec.jobs;
    xspec.replicas = quick ? 16 : 64;
    xspec.instructions = spec.instructions;
    xspec.variants = {variant_or_die("baseline@ruu")};

    std::vector<analysis::VulnReport> statics;
    std::vector<std::string> paths;
    const fs::path dir = fs::path(REESE_SOURCE_DIR) / "examples" / "srv";
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".srv") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) {
      std::ifstream file(path);
      std::stringstream buffer;
      buffer << file.rdbuf();
      auto assembled = isa::assemble(buffer.str());
      if (!assembled.ok()) {
        std::fprintf(stderr, "component_avf: %s: %s\n", path.c_str(),
                     assembled.error().to_string().c_str());
        return 1;
      }
      sim::CampaignProgram program;
      program.name = fs::path(path).stem().string();
      program.program = assembled.value();
      statics.push_back(analysis::analyze_vulnerability(program.program));
      xspec.programs.push_back(std::move(program));
    }

    if (!xspec.programs.empty()) {
      const sim::CampaignResult xresult = sim::run_campaign(xspec);
      for (usize w = 0; w < xresult.spec.workloads.size(); ++w) {
        const sim::CampaignCell measured = xresult.workload_total(0, w);
        std::vector<double> predicted;
        std::vector<double> sdc_count;
        XvalRow row;
        row.name = xresult.spec.workloads[w];
        for (const analysis::InstVuln& inst : statics[w].instructions) {
          if (!inst.reachable) continue;
          const auto it = measured.by_pc.find(inst.pc);
          const sim::PcStratum* stratum =
              it == measured.by_pc.end() ? nullptr : &it->second;
          predicted.push_back(inst.ace_score);
          sdc_count.push_back(stratum == nullptr
                                  ? 0.0
                                  : static_cast<double>(stratum->undetected));
          if (stratum != nullptr) {
            row.injected += stratum->injected;
            row.sdc += stratum->undetected;
          }
        }
        row.joined_pcs = predicted.size();
        row.rho_sdc = spearman_rank_correlation(predicted, sdc_count);
        std::printf("  xval %-12s joined=%3zu injected=%6llu sdc=%6llu "
                    "rho_sdc=%+.3f\n",
                    row.name.c_str(), row.joined_pcs,
                    static_cast<unsigned long long>(row.injected),
                    static_cast<unsigned long long>(row.sdc), row.rho_sdc);
        xval.push_back(std::move(row));
      }
    }
  }

  bool pass = true;
  for (const Check& check : checks) {
    std::printf("  check %-22s %s  (%s)\n", check.name.c_str(),
                check.pass ? "PASS" : "FAIL", check.detail.c_str());
    if (!check.pass) pass = false;
  }

  std::string report;
  json::Writer w(&report);
  w.begin_object().key("schema").value("reese-cavf-v1");
  w.key("quick").value(quick);
  w.key("instructions").value(spec.instructions);
  w.key("replicas").value(spec.replicas);
  w.key("rate").significant(spec.rate, 6);
  w.key("seed").value(spec.seed);
  w.key("sites").begin_array();
  for (const SiteRow& r : rows) {
    w.begin_object().key("label").value(r.label);
    w.key("base").value(r.base);
    w.key("site").value(r.site);
    w.key("injected").value(r.injected);
    w.key("detected").value(r.detected);
    w.key("masked").value(r.masked);
    w.key("sdc").value(r.sdc);
    w.key("coverage_loss").value(r.coverage_loss);
    w.key("detection").fixed(r.detection, 6);
    w.key("detection_lower").fixed(r.detection_ci.lower, 6);
    w.key("detection_upper").fixed(r.detection_ci.upper, 6);
    w.key("avf").fixed(r.avf, 6);
    w.key("avf_lower").fixed(r.avf_ci.lower, 6);
    w.key("avf_upper").fixed(r.avf_ci.upper, 6);
    w.key("mean_latency").fixed(r.mean_latency, 3);
    w.key("top_pcs").begin_array(json::Layout::kInline);
    for (const SiteRow::TopPc& top : r.top_pcs) {
      w.begin_object(json::Layout::kInline);
      w.key("pc").value(top.pc).key("injected").value(top.injected);
      w.key("detected").value(top.detected).key("sdc").value(top.sdc).end();
    }
    w.end().end();
  }
  w.end();
  w.key("cross_validation").begin_array();
  for (const XvalRow& r : xval) {
    w.begin_object(json::Layout::kInline);
    w.key("name").value(r.name).key("joined_pcs").value(r.joined_pcs);
    w.key("injected").value(r.injected).key("sdc").value(r.sdc);
    w.key("rho_sdc").fixed(r.rho_sdc, 6).end();
  }
  w.end();
  w.key("checks").begin_array();
  for (const Check& check : checks) {
    w.begin_object(json::Layout::kInline);
    w.key("name").value(check.name).key("pass").value(check.pass);
    w.key("detail").value(check.detail).end();
  }
  w.end();
  w.key("pass").value(pass).end();
  report += '\n';

  std::ofstream out(out_path);
  if (!out || !(out << report)) {
    std::fprintf(stderr, "component_avf: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out.close();
  std::fprintf(stderr, "component_avf: wrote %s\n", out_path.c_str());

  if (!pass) {
    std::fprintf(stderr, "component_avf: FAIL — see checks above\n");
    return 1;
  }
  std::printf("component_avf: PASS\n");
  return 0;
}
