#include "common/diag.h"

#include "common/strutil.h"

namespace reese {

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

usize count_severity(const std::vector<Diagnostic>& diags, Severity severity) {
  usize n = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity == severity) ++n;
  }
  return n;
}

namespace {

std::string render_text(const std::vector<Diagnostic>& diags,
                        std::string_view source) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += format("%.*s:0x%llx: %.*s: [%.*s] %s\n",
                  static_cast<int>(source.size()), source.data(),
                  static_cast<unsigned long long>(d.pc),
                  static_cast<int>(severity_name(d.severity).size()),
                  severity_name(d.severity).data(),
                  static_cast<int>(d.pass.size()), d.pass.data(),
                  d.message.c_str());
  }
  out += format("%zu error(s), %zu warning(s), %zu note(s)\n",
                count_severity(diags, Severity::kError),
                count_severity(diags, Severity::kWarning),
                count_severity(diags, Severity::kNote));
  return out;
}

std::string render_json(const std::vector<Diagnostic>& diags,
                        std::string_view source) {
  std::string out;
  json::Writer w(&out);
  w.begin_object().key("source").value(source);
  w.key("diagnostics").begin_array();
  for (const Diagnostic& d : diags) {
    w.begin_object(json::Layout::kInline);
    w.key("severity").value(severity_name(d.severity)).key("pc").value(d.pc);
    w.key("pass").value(d.pass).key("message").value(d.message).end();
  }
  w.end();
  w.key("errors").value(count_severity(diags, Severity::kError));
  w.key("warnings").value(count_severity(diags, Severity::kWarning));
  w.key("notes").value(count_severity(diags, Severity::kNote)).end();
  out += '\n';
  return out;
}

}  // namespace

std::string render_diagnostics(const std::vector<Diagnostic>& diags,
                               DiagFormat format, std::string_view source) {
  return format == DiagFormat::kJson ? render_json(diags, source)
                                     : render_text(diags, source);
}

}  // namespace reese
