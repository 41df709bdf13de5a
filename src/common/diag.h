// Structured diagnostics for program-analysis tooling (srv-lint, --prelint).
//
// A Diagnostic is one finding anchored to a program counter: which pass
// produced it, how severe it is, and a human-readable message. Reporters
// render a batch of diagnostics as plain text (one finding per line, grep-
// and editor-friendly) or as a JSON array (machine-readable, stable field
// names) so CI and external tooling can consume lint output without parsing
// free-form text.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"  // json_escape, which reporters reach through here
#include "common/types.h"

namespace reese {

enum class Severity : u8 {
  kNote,     ///< informational; never affects exit status
  kWarning,  ///< suspicious but runnable
  kError,    ///< the program is malformed; --prelint refuses to run it
};

/// "note" / "warning" / "error".
std::string_view severity_name(Severity severity);

struct Diagnostic {
  Severity severity = Severity::kWarning;
  Addr pc = 0;        ///< anchor instruction address; 0 = whole-program
  std::string pass;   ///< registry name of the pass that produced it
  std::string message;
};

/// Count of diagnostics at exactly `severity`.
usize count_severity(const std::vector<Diagnostic>& diags, Severity severity);

/// Output format for render_diagnostics.
enum class DiagFormat : u8 { kText, kJson };

/// Render a batch of findings.
///
/// Text:  "<source>:0x<pc>: <severity>: [<pass>] <message>\n" per finding
///        plus a one-line summary ("N errors, M warnings, K notes").
/// JSON:  {"source": ..., "diagnostics": [{"severity","pc","pass",
///        "message"}...], "errors": N, "warnings": M, "notes": K}
/// `source` labels the program (file name or workload name).
std::string render_diagnostics(const std::vector<Diagnostic>& diags,
                               DiagFormat format,
                               std::string_view source = "<program>");

}  // namespace reese
