// Perfetto-loadable pipeline traces (DESIGN.md §12).
//
// ChromeTraceTracer turns the Tracer callback stream (core/trace.h) into
// Chrome trace_event JSON — the format chrome://tracing and Perfetto load
// natively. One simulated cycle maps to one microsecond of trace time:
//
//   * the P-stream and R-stream render as two named tracks (tid 0 / tid 1)
//     of one "reese-sim" process;
//   * each instruction is a complete ("X") slice per stream it touched:
//     dispatch→writeback on the P track, R-issue→R-compare on the R track,
//     named by its disassembly, with seq/pc/cycle args attached;
//   * a flow arrow (ph "s" → "f", id = seq) links every P-stream writeback
//     to its R-stream comparison, making the paper's P→R separation
//     visible as arrow length;
//   * squashes and comparator errors are instant ("i") events.
//
// Events stream to the sink as instructions retire (commit/squash), so
// memory stays bounded by in-flight instructions, not run length. For
// million-instruction runs wrap any tracer in SamplingTracer: keep every
// Nth instruction and/or restrict to a cycle window.
//
// The emitted document is `{"traceEvents": [...]}` — validated structurally
// by tools/trace_check.py.
#pragma once

#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/trace.h"

namespace reese::core {

/// Where ChromeTraceTracer writes events. FileTraceSink is the production
/// implementation; tests capture via StringTraceSink.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const std::string& chunk) = 0;
};

class StringTraceSink final : public TraceSink {
 public:
  void write(const std::string& chunk) override { buffer_ += chunk; }
  const std::string& str() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Owns a FILE*; creation failure is visible via ok().
class FileTraceSink final : public TraceSink {
 public:
  explicit FileTraceSink(const std::string& path);
  ~FileTraceSink() override;
  bool ok() const { return file_ != nullptr; }
  void write(const std::string& chunk) override;

 private:
  std::FILE* file_ = nullptr;
};

class ChromeTraceTracer final : public Tracer {
 public:
  /// `sink` must outlive the tracer. The JSON prologue (process/thread
  /// metadata) is written immediately.
  explicit ChromeTraceTracer(TraceSink* sink);
  /// Emits any still-in-flight instructions and the closing bracket.
  ~ChromeTraceTracer() override;

  void record(const TraceEvent& event) override;

  /// Flush in-flight instructions and close the JSON document. Idempotent;
  /// called by the destructor if not called explicitly. After finish() the
  /// tracer drops further events.
  void finish();

  u64 events_emitted() const { return events_emitted_; }

 private:
  void emit(const std::string& event_json);
  /// Write the slices/flows for one finished (or cut-off) lifecycle.
  void emit_lifecycle(const Lifecycle& lifecycle, Cycle end_cycle);
  void emit_instant(const char* name, Cycle cycle, InstSeq seq, u32 tid);

  TraceSink* sink_;
  /// In-flight lifecycles by lifecycle_key.
  std::unordered_map<u64, Lifecycle> pending_;
  bool finished_ = false;
  u64 events_emitted_ = 0;
};

/// Decorator that forwards a subset of the event stream to `inner`:
/// every `every_n`-th true-path instruction (seq % every_n == 0; 0 or 1 =
/// all), optionally restricted to dispatches inside [first_cycle,
/// last_cycle) (last_cycle 0 = unbounded). Selection is decided at
/// dispatch and sticky for the instruction's whole lifecycle, so sampled
/// traces contain only complete lifecycles.
class SamplingTracer final : public Tracer {
 public:
  SamplingTracer(Tracer* inner, u64 every_n, Cycle first_cycle = 0,
                 Cycle last_cycle = 0)
      : inner_(inner),
        every_n_(every_n == 0 ? 1 : every_n),
        first_cycle_(first_cycle),
        last_cycle_(last_cycle) {}

  void record(const TraceEvent& event) override;

  u64 forwarded() const { return forwarded_; }
  u64 dropped() const { return dropped_; }

 private:
  Tracer* inner_;
  u64 every_n_;
  Cycle first_cycle_;
  Cycle last_cycle_;
  /// lifecycle_keys selected at dispatch and not yet retired.
  std::unordered_set<u64> live_;
  u64 forwarded_ = 0;
  u64 dropped_ = 0;
};

}  // namespace reese::core
