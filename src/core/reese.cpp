// The REESE checker: release (RUU -> R-stream Queue), R-stream issue into
// leftover capacity, comparison at R writeback, and the final in-order
// commit from the queue head.
#include <algorithm>
#include <cassert>

#include "common/bitutil.h"
#include "common/snapshot.h"
#include "core/checker.h"
#include "core/event_queue.h"
#include "core/pipeline.h"
#include "core/rstream.h"

namespace reese::core {

class ReeseChecker final : public Checker {
 public:
  explicit ReeseChecker(Pipeline* core)
      : Checker(core, /*duplicates=*/false),
        knobs_(core_.config_.reese),
        rqueue_(knobs_.rqueue_size) {
    // occupancy_pct >= watermark  <=>  100*size >= watermark*capacity
    //                             <=>  size >= ceil(watermark*capacity/100).
    rpriority_min_count_ = static_cast<u32>(
        (u64{knobs_.priority_watermark_pct} * rqueue_.capacity() + 99) / 100);
  }

  usize occupancy() const override { return rqueue_.size(); }
  u32 window_slots() const override { return r_inflight_; }
  void issue(u32* budget, bool priority_pass) override;
  void writeback() override;
  void commit() override;
  bool strike_rqueue(const SiteStrike& strike) override;

  bool quiescent() const override {
    return rqueue_.empty() && r_inflight_ == 0 && r_events_.empty() &&
           r_release_at_.empty();
  }
  void save(SnapshotWriter* writer) const override {
    rqueue_.save(writer);
    writer->put_u64(reexec_counter_);
    writer->put_u64(r_issue_next_id_);
  }
  void load(SnapshotReader* reader) override {
    rqueue_.load(reader);
    reexec_counter_ = reader->get_u64();
    r_issue_next_id_ = reader->get_u64();
  }

 private:
  void release();
  void complete(u64 entry_id);

  const ReeseConfig& knobs_;
  RStreamQueue rqueue_;
  u64 reexec_counter_ = 0;    ///< rotates over reexec_interval
  u64 r_issue_next_id_ = 1;   ///< first R-queue id not yet issued/skipped;
                              ///< the settled prefix before it is never
                              ///< rescanned (ids are FIFO-consecutive)
  u32 rpriority_min_count_ = 0;  ///< priority_watermark_pct as an entry
                                 ///< count (one compare per issue pass)
  u32 r_inflight_ = 0;  ///< R instructions occupying scheduler-window
                        ///< capacity (window_sharing)
  CalendarQueue<u64> r_events_;      ///< R completions, by queue id
  CalendarQueue<u32> r_release_at_;  ///< deferred r_inflight_ releases
};

std::unique_ptr<Checker> make_reese_checker(Pipeline* core) {
  return std::make_unique<ReeseChecker>(core);
}

// Move completed RUU-head instructions into the R-stream Queue.
void ReeseChecker::release() {
  Pipeline& core = core_;
  u32 released = 0;
  u32 position = 0;
  while (released < core.config_.commit_width && position < core.ruu_count_) {
    const u32 slot_index = core.ruu_index_at(position);
    Pipeline::RuuEntry& entry = core.ruu_[slot_index];
    if (entry.released) {
      ++position;
      continue;
    }
    if (!entry.completed) break;
    assert(!entry.spec && "speculative instruction reached the RUU head");
    if (rqueue_.full()) {
      ++core.stats_.rqueue_full_stall_cycles;
      break;
    }

    REntry& redundant = rqueue_.push_slot();
    redundant.inst = entry.inst;
    redundant.pc = entry.pc;
    redundant.seq = entry.seq;
    redundant.rs1_value = entry.rs1_value;
    redundant.rs2_value = entry.rs2_value;
    redundant.p_result = entry.result;
    redundant.r_base_value = entry.result;  // loads: the reload's value
    redundant.mem_addr = entry.mem_addr;
    redundant.p_next = entry.actual_next;
    redundant.p_issue_cycle = entry.issue_cycle;
    redundant.p_complete_cycle = entry.complete_cycle;
    redundant.holds_ruu_slot = !knobs_.early_release;

    // Partial re-execution (§7 future work): re-execute 1 of every k. The
    // counter rotates in [0, k) so the common k=1 case never divides.
    const u32 k = std::max<u32>(1, knobs_.reexec_interval);
    redundant.needs_reexec = reexec_counter_ == 0;
    if (++reexec_counter_ >= k) reexec_counter_ = 0;

    if (entry.site_faulted) {
      // A component strike (RUU result or LSQ address) travels with the
      // instruction into the checker. The flipped result seeded BOTH
      // p_result and r_base_value above — so for loads the comparator sees
      // two agreeing corrupt copies (REESE's load-data blind spot), while
      // recomputed classes mismatch and detect.
      entry.site_faulted = false;
      redundant.site_faulted = true;
      redundant.site_fault_cycle = entry.site_fault_cycle;
    }
    redundant.fault = core.inject_result_fault(entry, &redundant.p_result);

    ++core.stats_.rqueue_enqueued;
    core.trace(TraceKind::kRelease, redundant.seq, redundant.pc,
               redundant.inst, false);

    if (knobs_.early_release) {
      assert(position == 0 &&
             "early release must drain contiguously from the head");
      core.free_ruu_head();
      // Head moved; position 0 is the next entry.
    } else {
      entry.released = true;
      ++position;
    }
    ++released;
  }
}

void ReeseChecker::issue(u32* budget, bool priority_pass) {
  // §4.3: counters watch the R-queue occupancy; when it runs hot, redundant
  // instructions must be scheduled ahead of primary ones or the queue fills
  // and blocks the whole pipeline. The percentage threshold is folded into
  // an entry count at construction so the check is one compare; issue
  // leaves the queue size unchanged, so both passes see the same answer.
  const bool priority = rqueue_.size() >= rpriority_min_count_;
  if (priority != priority_pass) return;
  Pipeline& core = core_;
  if (priority) ++core.stats_.rpriority_cycles;

  // Strict FIFO issue: scan from the head, skip entries already in flight
  // or not selected for re-execution, stop at the first entry that cannot
  // issue this cycle. `issued` and `needs_reexec` never revert while an
  // entry is queued, so the settled head prefix only grows until popped;
  // r_issue_next_id_ remembers the first candidate so the scan does not
  // re-skip the prefix every cycle.
  const usize queue_size = rqueue_.size();
  if (queue_size == 0) return;
  const u64 front_id = rqueue_.front().id;
  if (r_issue_next_id_ < front_id) r_issue_next_id_ = front_id;
  for (usize index = static_cast<usize>(r_issue_next_id_ - front_id);
       index < queue_size && *budget > 0; ++index) {
    REntry& entry = rqueue_.at(index);
    if (!entry.needs_reexec || entry.issued) {
      r_issue_next_id_ += entry.id == r_issue_next_id_ ? 1 : 0;
      continue;
    }

    if (knobs_.min_separation > 0 &&
        core.now_ < entry.p_complete_cycle + knobs_.min_separation) {
      break;  // §2: enforce a minimum P->R separation when configured
    }

    // An R instruction needs a scheduler-window slot while it executes.
    // The head R instruction may always proceed (the comparator stage has
    // a dedicated staging latch), which guarantees forward progress when
    // the window is packed with P entries and the R-queue is full.
    if (knobs_.window_sharing &&
        core.ruu_count_ + r_inflight_ >= core.config_.ruu_size &&
        r_inflight_ > 0) {
      break;
    }

    // Queue entries are all true-path instructions.
    const std::optional<Cycle> complete_at = acquire_r_unit(
        entry.inst, entry.pc, entry.mem_addr, /*architectural=*/true);
    if (!complete_at) break;

    entry.issued = true;
    r_issue_next_id_ += entry.id == r_issue_next_id_ ? 1 : 0;
    core.trace(TraceKind::kRIssue, entry.seq, entry.pc, entry.inst, false);
    if (knobs_.window_sharing) ++r_inflight_;
    core.stats_.separation.add(core.now_ - entry.p_issue_cycle);
    r_events_.schedule(*complete_at, core.now_, entry.id);
    ++core.stats_.issued_r;
    --*budget;
  }
}

void ReeseChecker::writeback() {
  // The empty() guards skip the take/recycle dance on quiet queues.
  const Cycle now = core_.now_;

  // Recycle scheduler-window slots whose R instructions have cleared the
  // compare stage this cycle.
  if (!r_release_at_.empty()) {
    std::vector<u32> releases = r_release_at_.take(now);
    for (u32 count : releases) {
      assert(r_inflight_ >= count);
      r_inflight_ -= count;
    }
    r_release_at_.recycle(std::move(releases));
  }

  if (!r_events_.empty()) {
    std::vector<u64> ids = r_events_.take(now);
    for (u64 id : ids) complete(id);
    r_events_.recycle(std::move(ids));
  }
}

// An R-stream execution finished: re-run the computation and compare with
// the stored P result.
void ReeseChecker::complete(u64 entry_id) {
  Pipeline& core = core_;
  REntry& entry = rqueue_.by_id(entry_id);
  assert(entry.issued && !entry.completed);

  entry.mismatch = recompute_and_compare(
      entry.inst, entry.pc, entry.rs1_value, entry.rs2_value, entry.mem_addr,
      entry.p_next, entry.p_result, entry.r_base_value, entry.fault);
  entry.completed = true;
  core.trace(TraceKind::kRComplete, entry.seq, entry.pc, entry.inst, false);
  // The R instruction holds its scheduler-window slot through the
  // writeback and comparison stages before it is recycled.
  if (knobs_.window_sharing) {
    r_release_at_.schedule(core.now_ + knobs_.compare_stage_cycles,
                           core.now_, 1u);
  }
  ++core.stats_.committed_r;
  ++core.stats_.comparisons;
}

// Final in-order commit from the R-queue head, then release into the
// freed queue slots.
void ReeseChecker::commit() {
  Pipeline& core = core_;
  // Stats deltas accumulate locally and post once per commit group, not per
  // instruction, so the hot loop touches only the queue and the entry.
  u32 group = 0;
  u32 skipped = 0;
  while (group < core.config_.commit_width && !rqueue_.empty()) {
    REntry& entry = rqueue_.front();
    if (entry.needs_reexec && !entry.completed) break;

    if (isa::is_store(entry.inst.op)) {
      // The single architectural memory write (delayed past comparison,
      // §4.3: "results may not be committed into memory before they have
      // been compared").
      if (!core.fu_pool_.try_acquire(FuKind::kMemPort, core.now_, 1)) break;
      core.hierarchy_->data_access(entry.mem_addr, true);
      if (core.mem_site_armed()) core.drain_mem_site_events(entry.pc, true);
    }

    // A skipped (1-of-k) instruction never compared: an injected flip
    // escapes, as does one that landed where the comparator never looks.
    core.resolve_check(entry.mismatch, entry.fault, entry.seq, entry.pc,
                       entry.inst);

    if (entry.site_faulted || entry.checker_faulted) {
      // Component-strike resolution (DESIGN.md §16): a mismatch is a
      // detection (including false positives from corrupted checker
      // state); an escaped datapath corruption (site_faulted) commits as
      // SDC; an escaped checker-only corruption leaves architectural
      // state correct — masked.
      const FaultOutcome outcome = entry.mismatch ? FaultOutcome::kDetected
                                   : entry.site_faulted
                                       ? FaultOutcome::kSdc
                                       : FaultOutcome::kMasked;
      core.report_site_outcome(outcome, entry.pc, entry.site_fault_cycle);
    }

    skipped += entry.needs_reexec ? 0 : 1;
    if (entry.holds_ruu_slot) core.free_ruu_head();
    if (entry.inst.op == isa::Opcode::kHalt) core.halted_ = true;
    core.trace(TraceKind::kCommit, entry.seq, entry.pc, entry.inst, false);
    rqueue_.pop_front();
    ++group;
    if (core.halted_) break;
  }
  core.stats_.committed += group;
  core.stats_.rskipped += skipped;
  release();
}

bool ReeseChecker::strike_rqueue(const SiteStrike& strike) {
  // The headline experiment: the fault lands in REESE's own checker. The
  // strike picks a physical queue slot; an empty one is masked (the
  // queue's vulnerability scales with its occupancy).
  const usize index = static_cast<usize>(strike.cell % rqueue_.capacity());
  if (index >= rqueue_.size()) return false;
  Pipeline& core = core_;
  REntry& entry = rqueue_.at(index);
  if (entry.site_faulted || entry.checker_faulted) {
    core.report_site_outcome(FaultOutcome::kMasked, entry.pc, core.now_);
    return true;
  }
  entry.site_fault_cycle = core.now_;
  switch (strike.field % 4) {
    case 0:
      // The stored result. In hardware this is the value that will be
      // committed to architectural state: an upset caught by a pending
      // comparison is a (correct) detection; one that lands after the
      // comparison — or on a 1-of-k slot that skips re-execution — commits
      // silently (SDC).
      entry.p_result = flip_bit(entry.p_result, strike.bit & 63);
      entry.site_faulted = true;
      break;
    case 1:
      // Stored operand copies feed only the re-execution: a corrupt operand
      // makes the recomputation disagree with a *correct* result — a
      // false-positive detection that charges the recovery penalty. If the
      // operand is never consumed, the upset is masked.
      entry.rs1_value = flip_bit(entry.rs1_value, strike.bit & 63);
      entry.checker_faulted = true;
      break;
    case 2:
      entry.rs2_value = flip_bit(entry.rs2_value, strike.bit & 63);
      entry.checker_faulted = true;
      break;
    case 3:
      // Control-state upset: kill the re-execute flag. The instruction
      // commits its (correct) value unchecked — architecturally masked,
      // but REESE silently lost coverage for it. on_checker_loss()
      // quantifies that window.
      entry.checker_faulted = true;
      if (entry.needs_reexec && !entry.issued) {
        entry.needs_reexec = false;
        core.fault_hook_->on_checker_loss();
      }
      break;
  }
  return true;
}

}  // namespace reese::core
