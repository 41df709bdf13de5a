#include "core/chrome_trace.h"

#include <algorithm>
#include <vector>

#include "common/json.h"
#include "common/strutil.h"

namespace reese::core {

namespace {

constexpr u32 kPid = 1;
constexpr u32 kPStreamTid = 0;
constexpr u32 kRStreamTid = 1;

std::string metadata_event(const char* name, u32 tid, const char* track) {
  std::string out;
  json::Writer w(&out);
  w.begin_object(json::Layout::kCompact).key("name").value(name);
  w.key("ph").value("M").key("pid").value(kPid).key("tid").value(tid);
  w.key("args").begin_object(json::Layout::kCompact).key("name").value(track);
  w.end().end();
  return out;
}

/// One instruction-lifecycle slice ("X") on track `tid`.
std::string slice_event(const std::string& name, const char* category,
                        Cycle begin, Cycle end, u32 tid, InstSeq seq, Addr pc,
                        bool spec) {
  std::string out;
  json::Writer w(&out);
  w.begin_object(json::Layout::kCompact);
  w.key("name").value(name).key("cat").value(category).key("ph").value("X");
  w.key("ts").value(begin).key("dur").value(end - begin);
  w.key("pid").value(kPid).key("tid").value(tid);
  w.key("args").begin_object(json::Layout::kCompact).key("seq").value(seq);
  w.key("pc").value(format("0x%llx", static_cast<unsigned long long>(pc)));
  w.key("spec").value(spec).end().end();
  return out;
}

/// One end of a P-to-R flow arrow: phase "s" (start) or "f" (finish,
/// bound to the enclosing slice).
std::string flow_event(const char* phase, Cycle ts, u32 tid, u64 id) {
  std::string out;
  json::Writer w(&out);
  w.begin_object(json::Layout::kCompact);
  w.key("name").value("p-to-r").key("cat").value("flow").key("ph").value(phase);
  if (phase[0] == 'f') w.key("bp").value("e");
  w.key("ts").value(ts).key("pid").value(kPid).key("tid").value(tid);
  w.key("id").value(id).end();
  return out;
}

}  // namespace

FileTraceSink::FileTraceSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
}

FileTraceSink::~FileTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileTraceSink::write(const std::string& chunk) {
  if (file_ != nullptr) std::fwrite(chunk.data(), 1, chunk.size(), file_);
}

ChromeTraceTracer::ChromeTraceTracer(TraceSink* sink) : sink_(sink) {
  sink_->write("{\"traceEvents\":[\n");
  emit(metadata_event("process_name", kPStreamTid, "reese-sim"));
  emit(metadata_event("thread_name", kPStreamTid, "P-stream"));
  emit(metadata_event("thread_name", kRStreamTid, "R-stream"));
}

ChromeTraceTracer::~ChromeTraceTracer() { finish(); }

void ChromeTraceTracer::emit(const std::string& event_json) {
  sink_->write(events_emitted_++ == 0 ? event_json : ",\n" + event_json);
}

void ChromeTraceTracer::emit_instant(const char* name, Cycle cycle,
                                     InstSeq seq, u32 tid) {
  std::string event;
  json::Writer w(&event);
  w.begin_object(json::Layout::kCompact).key("name").value(name);
  w.key("ph").value("i").key("ts").value(cycle);
  w.key("pid").value(kPid).key("tid").value(tid).key("s").value("t");
  w.key("args").begin_object(json::Layout::kCompact).key("seq").value(seq);
  w.end().end();
  emit(event);
}

void ChromeTraceTracer::emit_lifecycle(const Lifecycle& lifecycle,
                                       Cycle end_cycle) {
  const std::string name = isa::disassemble(lifecycle.inst);
  const InstSeq seq = lifecycle.seq;

  // P-stream slice: dispatch -> writeback (or wherever the lifecycle
  // stopped). Perfetto wants dur >= 0; same-cycle stages get dur 0.
  const Cycle p_end = lifecycle.complete != 0 ? lifecycle.complete
                      : (end_cycle >= lifecycle.dispatch ? end_cycle
                                                         : lifecycle.dispatch);
  emit(slice_event(name, lifecycle.squashed ? "squashed" : "p-stream",
                   lifecycle.dispatch, p_end, kPStreamTid, seq, lifecycle.pc,
                   lifecycle.spec));

  // R-stream slice + flow arrow, only if the instruction was re-executed.
  if (lifecycle.r_issue != 0) {
    const Cycle r_end =
        lifecycle.r_complete != 0 ? lifecycle.r_complete : lifecycle.r_issue;
    emit(slice_event(name, "r-stream", lifecycle.r_issue, r_end, kRStreamTid,
                     seq, lifecycle.pc, lifecycle.spec));
    // Flow arrow from the P-stream writeback to the R-stream comparison:
    // its length in the UI is the paper's P->R separation. The id must be
    // unique per arrow, so the spec bit is folded in (a wrong-path entry
    // can share its seq with a true-path instruction).
    const Cycle flow_start = lifecycle.complete != 0 ? lifecycle.complete
                                                     : lifecycle.dispatch;
    const u64 flow_id = lifecycle_key(seq, lifecycle.spec);
    emit(flow_event("s", flow_start, kPStreamTid, flow_id));
    emit(flow_event("f", r_end, kRStreamTid, flow_id));
  }
}

void ChromeTraceTracer::record(const TraceEvent& event) {
  if (finished_) return;
  const u64 k = lifecycle_key(event.seq, event.spec);
  if (event.kind == TraceKind::kDispatch) {
    pending_[k].apply(event);
    return;
  }
  if (event.kind == TraceKind::kError) {
    // Errors are detected at comparison time, on the R track.
    emit_instant("error-detected", event.cycle, event.seq, kRStreamTid);
    return;
  }
  const auto it = pending_.find(k);
  if (it == pending_.end()) return;
  it->second.apply(event);
  if (event.kind != TraceKind::kCommit && event.kind != TraceKind::kSquash) {
    return;
  }
  emit_lifecycle(it->second, event.cycle);
  if (event.kind == TraceKind::kSquash) {
    emit_instant("squash", event.cycle, event.seq, kPStreamTid);
  }
  pending_.erase(it);
}

void ChromeTraceTracer::finish() {
  if (finished_) return;
  // Flush still-in-flight lifecycles (run ended mid-pipeline), in a
  // deterministic order for reproducible output.
  std::vector<u64> keys;
  keys.reserve(pending_.size());
  for (const auto& [k, lifecycle] : pending_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  for (u64 k : keys) {
    const Lifecycle& lifecycle = pending_.at(k);
    emit_lifecycle(lifecycle, lifecycle.dispatch);
  }
  pending_.clear();
  sink_->write("\n]}\n");
  finished_ = true;
}

void SamplingTracer::record(const TraceEvent& event) {
  const u64 k = lifecycle_key(event.seq, event.spec);
  if (event.kind == TraceKind::kDispatch) {
    const bool in_window =
        event.cycle >= first_cycle_ &&
        (last_cycle_ == 0 || event.cycle < last_cycle_);
    const bool selected = in_window && (event.seq % every_n_ == 0);
    if (!selected) {
      ++dropped_;
      return;
    }
    live_.insert(k);
    ++forwarded_;
    inner_->record(event);
    return;
  }
  const auto it = live_.find(k);
  if (it == live_.end()) {
    ++dropped_;
    return;
  }
  ++forwarded_;
  inner_->record(event);
  if (event.kind == TraceKind::kCommit || event.kind == TraceKind::kSquash) {
    live_.erase(it);
  }
}

}  // namespace reese::core
