// Pipeline tracing: per-instruction lifecycle events.
//
// A Tracer installed on a Pipeline receives one callback per pipeline
// event (dispatch, issue, completion, R-stream issue/compare, commit,
// squash). TimelineTracer assembles them into per-instruction rows —
// SimpleScalar "pipeview" style — for debugging and teaching:
//
//   seq      pc  instruction            DS IS WB RL RI RC CT
//   17   0x1040  addi t0, t0, -1        12 13 14 16 18 19 21
#pragma once

#include <deque>
#include <string>
#include <unordered_map>

#include "common/types.h"
#include "isa/instruction.h"

namespace reese::core {

enum class TraceKind : u8 {
  kDispatch,   ///< entered the RUU (functionally executed)
  kIssue,      ///< P-stream issue to a functional unit
  kComplete,   ///< P-stream writeback
  kRelease,    ///< moved into the R-stream Queue
  kRIssue,     ///< R-stream (or duplicate) execution issued
  kRComplete,  ///< R-stream execution compared
  kCommit,     ///< architecturally committed
  kSquash,     ///< wrong-path entry squashed
  kError,      ///< comparator mismatch detected
};

const char* trace_kind_name(TraceKind kind);

struct TraceEvent {
  TraceKind kind;
  Cycle cycle;
  InstSeq seq;
  Addr pc;
  isa::Instruction inst;
  bool spec;  ///< event belongs to a wrong-path instruction
};

class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual void record(const TraceEvent& event) = 0;
};

/// Key of one instruction's lifecycle: wrong-path entries can share a seq
/// with a true-path instruction, so the spec flag is folded into the low
/// bit.
inline u64 lifecycle_key(InstSeq seq, bool spec) {
  return (static_cast<u64>(seq) << 1) | (spec ? 1 : 0);
}

/// One instruction's trip through the pipeline, assembled from its events:
/// the cycle of each stage it reached (0 = never) and how it ended.
struct Lifecycle {
  InstSeq seq = 0;
  Addr pc = 0;
  isa::Instruction inst;
  bool spec = false;
  bool squashed = false;
  bool error = false;
  Cycle dispatch = 0;
  Cycle issue = 0;
  Cycle complete = 0;
  Cycle release = 0;
  Cycle r_issue = 0;
  Cycle r_complete = 0;
  Cycle commit = 0;

  /// Record one event of this instruction; dispatch starts it afresh.
  void apply(const TraceEvent& event) {
    switch (event.kind) {
      case TraceKind::kDispatch:
        *this = Lifecycle{event.seq, event.pc, event.inst, event.spec};
        dispatch = event.cycle;
        break;
      case TraceKind::kIssue: issue = event.cycle; break;
      case TraceKind::kComplete: complete = event.cycle; break;
      case TraceKind::kRelease: release = event.cycle; break;
      case TraceKind::kRIssue: r_issue = event.cycle; break;
      case TraceKind::kRComplete: r_complete = event.cycle; break;
      case TraceKind::kCommit: commit = event.cycle; break;
      case TraceKind::kSquash: squashed = true; break;
      case TraceKind::kError: error = true; break;
    }
  }
};

/// Collects the last `capacity` instructions' lifecycles and renders them
/// as a table. Wrong-path instructions show up with a `*` and a squash
/// column.
class TimelineTracer final : public Tracer {
 public:
  explicit TimelineTracer(usize capacity = 64) : capacity_(capacity) {}

  void record(const TraceEvent& event) override;

  const std::deque<Lifecycle>& rows() const { return rows_; }
  u64 events_seen() const { return events_seen_; }

  /// Render the collected rows; columns show the cycle of each stage
  /// (blank if it never happened).
  std::string to_string() const;

 private:
  usize capacity_;
  std::deque<Lifecycle> rows_;
  /// lifecycle_key -> absolute row number (monotonic since construction);
  /// deque position = absolute - evicted_, so lookup is O(1). A key maps
  /// to its *most recent* row (wrong-path seqs recur).
  std::unordered_map<u64, u64> index_;
  u64 evicted_ = 0;  ///< rows dropped off the front so far
  u64 events_seen_ = 0;
};

}  // namespace reese::core
