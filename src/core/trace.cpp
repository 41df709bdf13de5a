#include "core/trace.h"

#include "common/strutil.h"

namespace reese::core {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kDispatch: return "dispatch";
    case TraceKind::kIssue: return "issue";
    case TraceKind::kComplete: return "complete";
    case TraceKind::kRelease: return "release";
    case TraceKind::kRIssue: return "r-issue";
    case TraceKind::kRComplete: return "r-complete";
    case TraceKind::kCommit: return "commit";
    case TraceKind::kSquash: return "squash";
    case TraceKind::kError: return "error";
  }
  return "?";
}

void TimelineTracer::record(const TraceEvent& event) {
  ++events_seen_;
  if (event.kind == TraceKind::kDispatch) {
    // Most recent row wins the index slot (wrong-path seqs recur).
    index_[lifecycle_key(event.seq, event.spec)] = evicted_ + rows_.size();
    rows_.emplace_back().apply(event);
    if (rows_.size() > capacity_) {
      const Lifecycle& oldest = rows_.front();
      const auto it = index_.find(lifecycle_key(oldest.seq, oldest.spec));
      // Drop the index entry only if it still points at the evicted row —
      // a newer row with the same key must keep its mapping.
      if (it != index_.end() && it->second == evicted_) index_.erase(it);
      rows_.pop_front();
      ++evicted_;
    }
    return;
  }
  const auto it = index_.find(lifecycle_key(event.seq, event.spec));
  if (it == index_.end()) return;  // scrolled out of the window
  rows_[it->second - evicted_].apply(event);
}

std::string TimelineTracer::to_string() const {
  std::string out = format("  %6s %-9s %-26s %7s %7s %7s %7s %7s %7s %7s\n",
                           "seq", "pc", "instruction", "DS", "IS", "WB", "RL",
                           "RI", "RC", "CT");
  auto cell = [](Cycle cycle) {
    return cycle == 0 ? std::string("      .") : format("%7llu",
        static_cast<unsigned long long>(cycle));
  };
  for (const Lifecycle& row : rows_) {
    std::string line = format(
        "  %5llu%c 0x%-7llx %-26s", static_cast<unsigned long long>(row.seq),
        row.spec ? '*' : ' ', static_cast<unsigned long long>(row.pc),
        isa::disassemble(row.inst).c_str());
    line += cell(row.dispatch) + cell(row.issue) + cell(row.complete) +
            cell(row.release) + cell(row.r_issue) + cell(row.r_complete) +
            cell(row.commit);
    if (row.squashed) line += "  SQUASHED";
    if (row.error) line += "  ERROR-DETECTED";
    out += line + "\n";
  }
  return out;
}

}  // namespace reese::core
