// srv-lint: static CFG/dataflow analyzer for SRV assembly programs.
//
//   $ ./build/tools/srv-lint examples/srv/sum_array.srv
//   $ ./build/tools/srv-lint --format=json examples/asm/fib.s
//   $ ./build/tools/srv-lint --pass=branch-target,static-mem prog.srv
//   $ ./build/tools/srv-lint --list-passes
//
// Assembles each input file and runs the src/analysis pass registry over
// the decoded image. Flags:
//   --format=text|json      output format (default text)
//   --pass=NAME[,NAME...]   run only the named passes (default: all)
//   --min-severity=SEV      note|warning|error; drop findings below SEV
//   --werror                treat warnings as errors for the exit status
//   --list-passes           print the registry and exit
//   --vuln                  vulnerability mode: run the srv-vuln analysis
//                           (src/analysis/vuln.h) instead of the lint
//                           passes and print its ranking report
//
// Exit status: 0 = clean (notes/warnings allowed unless --werror),
// 1 = at least one error-severity finding (or a file failed to assemble),
// 2 = usage error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/passes.h"
#include "analysis/vuln.h"
#include "common/diag.h"
#include "common/flags.h"
#include "common/strutil.h"
#include "isa/assembler.h"

using namespace reese;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: srv-lint [--format=text|json] [--pass=NAME[,...]]\n"
               "                [--min-severity=note|warning|error] "
               "[--werror]\n"
               "                [--list-passes] [--vuln] "
               "file.srv [file2.srv ...]\n");
  return 2;
}

bool parse_severity(const std::string& name, Severity* out) {
  if (name == "note") *out = Severity::kNote;
  else if (name == "warning") *out = Severity::kWarning;
  else if (name == "error") *out = Severity::kError;
  else return false;
  return true;
}

/// Lint one file; appends its findings (assembly failures become a
/// diagnostic from a pseudo-pass "assemble"). Returns false on I/O error.
bool lint_file(const std::string& path, const analysis::LintOptions& options,
               std::vector<Diagnostic>* diags) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "srv-lint: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  auto assembled = isa::assemble(buffer.str());
  if (!assembled.ok()) {
    diags->push_back(Diagnostic{
        Severity::kError, 0, "assemble",
        format("line %d: %s", assembled.error().line,
               assembled.error().message.c_str())});
    return true;
  }
  std::vector<Diagnostic> found =
      analysis::run_lint(assembled.value(), options);
  diags->insert(diags->end(), std::make_move_iterator(found.begin()),
                std::make_move_iterator(found.end()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format_name = "text";
  std::string min_severity;
  std::string pass_list;
  bool werror = false;
  bool list_passes = false;
  bool vuln = false;
  FlagParser flags;
  flags.add("--format", &format_name);
  flags.add("--pass", &pass_list);
  flags.add("--min-severity", &min_severity);
  flags.add("--werror", &werror);
  flags.add("--list-passes", &list_passes);
  flags.add("--vuln", &vuln);
  flags.accept_operands();
  if (!flags.parse_or_report(argc, argv)) return usage();

  if (list_passes) {
    std::printf("registered passes:\n");
    for (const analysis::PassInfo& pass : analysis::all_passes()) {
      std::printf("  %-16.*s %.*s\n", static_cast<int>(pass.name.size()),
                  pass.name.data(), static_cast<int>(pass.description.size()),
                  pass.description.data());
    }
    return 0;
  }
  if (flags.positional().empty()) return usage();

  if (format_name != "text" && format_name != "json") return usage();
  const DiagFormat format =
      format_name == "json" ? DiagFormat::kJson : DiagFormat::kText;

  analysis::LintOptions options;
  if (!min_severity.empty() &&
      !parse_severity(min_severity, &options.min_severity)) {
    return usage();
  }
  if (!pass_list.empty()) {
    for (std::string_view name : split(pass_list, ',')) {
      if (!analysis::find_pass(name)) {
        std::fprintf(stderr, "srv-lint: unknown pass '%.*s' (--list-passes)\n",
                     static_cast<int>(name.size()), name.data());
        return 2;
      }
      options.passes.emplace_back(name);
    }
  }

  if (vuln) {
    // Vulnerability mode: same front end, srv-vuln analysis instead of the
    // lint registry (see tools/srv_vuln.cpp for the dedicated CLI).
    bool failed = false;
    for (const std::string& path : flags.positional()) {
      std::ifstream file(path);
      if (!file) {
        std::fprintf(stderr, "srv-lint: cannot open %s\n", path.c_str());
        failed = true;
        continue;
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      auto assembled = isa::assemble(buffer.str());
      if (!assembled.ok()) {
        std::fprintf(stderr, "srv-lint: %s: line %d: %s\n", path.c_str(),
                     assembled.error().line,
                     assembled.error().message.c_str());
        failed = true;
        continue;
      }
      const analysis::VulnReport report =
          analysis::analyze_vulnerability(assembled.value());
      std::fputs((format == DiagFormat::kJson ? report.json(path)
                                              : report.table(path))
                     .c_str(),
                 stdout);
    }
    return failed ? 1 : 0;
  }

  bool io_error = false;
  usize errors = 0;
  usize warnings = 0;
  for (const std::string& path : flags.positional()) {
    std::vector<Diagnostic> diags;
    if (!lint_file(path, options, &diags)) {
      io_error = true;
      continue;
    }
    errors += count_severity(diags, Severity::kError);
    warnings += count_severity(diags, Severity::kWarning);
    std::fputs(render_diagnostics(diags, format, path).c_str(), stdout);
  }
  if (io_error) return 2;
  if (errors > 0) return 1;
  if (warnings > 0 && werror) return 1;
  return 0;
}
