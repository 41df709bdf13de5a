// Franklin's time-redundancy scheme ("A Study of Time Redundant Fault
// Tolerance Techniques for Superscalar Processors", [24] in the paper) —
// the related work REESE improves on.
//
// Instructions are duplicated at the dynamic scheduler: every RUU entry
// must execute twice before it can commit, occupying its window slot for
// both executions. Dependent instructions are woken by the first
// execution (forwarding before comparison, as in REESE), but the entry
// only becomes committable after the duplicate execution's result has
// been compared. There is no R-stream Queue and no early release — which
// is exactly the structural pressure REESE's queue removes.
#include <algorithm>
#include <cassert>

#include "common/bitutil.h"
#include "core/pipeline.h"

namespace reese::core {

using isa::ExecClass;

void Pipeline::franklin_first_completion(u32 slot_index) {
  RuuEntry& entry = ruu_[slot_index];
  assert(franklin_mode() && !entry.first_done);
  entry.first_done = true;
  // Results forward to dependents before comparison (only the commit is
  // gated, §4.3 of the paper describes the same rule); branch resolution
  // happens on the primary execution, and the duplicate only verifies it.
  finish_execution(slot_index);

  // Create the comparator's stored copy; the fault hook may corrupt it
  // (or schedule a flip of the duplicate execution's output).
  entry.fr_p_copy = entry.result;
  if (!entry.spec && fault_hook_ != nullptr) {
    const FaultDecision decision =
        fault_hook_->on_instruction(entry.seq, now_, entry.pc, entry.inst);
    if (decision.flip_p || decision.flip_r) {
      entry.fr_faulted = true;
      entry.fr_fault_bit = decision.bit % 64;
      entry.fr_fault_cycle = now_;
      ++stats_.faults_injected;
      if (decision.flip_p) {
        entry.fr_p_copy = flip_bit(entry.fr_p_copy, entry.fr_fault_bit);
      }
      entry.fr_flip_r = decision.flip_r;
    }
  }

  // Re-arm for the duplicate execution; the entry re-enters the issue scan.
  entry.issued = false;
  unissued_mask_ |= ruu_mask_bit(slot_index);
}

bool Pipeline::franklin_issue_second(u32 slot_index) {
  RuuEntry& entry = ruu_[slot_index];
  assert(entry.first_done && !entry.issued && !entry.completed);

  const ExecClass exec_class = entry.inst.info().exec_class;
  const u32 r_occupancy = std::max<u32>(1, config_.reese.r_fu_occupancy);
  Cycle complete_at = 0;
  if (exec_class == ExecClass::kLoad) {
    if (!fu_pool_.try_acquire(FuKind::kMemPort, now_, 1)) return false;
    complete_at = now_ + hierarchy_->data_access(entry.mem_addr, false);
  } else if (exec_class == ExecClass::kStore) {
    const FuKind unit = config_.reese.r_store_uses_port ? FuKind::kMemPort
                                                        : FuKind::kIntAlu;
    if (!fu_pool_.try_acquire(unit, now_, 1)) return false;
    complete_at = now_ + 1;
  } else if (exec_class == ExecClass::kNone) {
    complete_at = now_ + 1;
  } else {
    OpTiming timing = op_timing(exec_class, config_);
    if (timing.fu == FuKind::kIntAlu || timing.fu == FuKind::kFpAlu) {
      timing.issue_latency = std::max(timing.issue_latency, r_occupancy);
    }
    if (!fu_pool_.try_acquire(timing.fu, now_, timing.issue_latency)) {
      return false;
    }
    complete_at = now_ + timing.result_latency;
  }

  entry.issued = true;
  unissued_mask_ &= ~ruu_mask_bit(slot_index);
  stats_.separation.add(now_ - entry.issue_cycle);
  schedule_p_event(complete_at, RuuRef{slot_index, entry.gen});
  trace(TraceKind::kRIssue, entry.seq, entry.pc, entry.inst, entry.spec);
  ++stats_.issued_r;
  return true;
}

void Pipeline::franklin_second_completion(u32 slot_index) {
  RuuEntry& entry = ruu_[slot_index];
  assert(entry.first_done && !entry.completed);
  entry.completed = true;

  if (entry.spec) return;  // wrong-path duplicates are never compared

  const ReexecOutcome outcome = recompute_and_compare(
      entry.inst, entry.pc, entry.rs1_value, entry.rs2_value, entry.mem_addr,
      entry.actual_next, entry.fr_p_copy, entry.result, entry.fr_flip_r,
      entry.fr_fault_bit);
  ++stats_.comparisons;
  ++stats_.committed_r;
  trace(TraceKind::kRComplete, entry.seq, entry.pc, entry.inst, false);

  if (outcome.mismatch) {
    ++stats_.errors_detected;
    trace(TraceKind::kError, entry.seq, entry.pc, entry.inst, false);
    fetch_stall_until_ = std::max(
        fetch_stall_until_, now_ + config_.reese.error_recovery_penalty);
    if (entry.fr_faulted && fault_hook_ != nullptr) {
      fault_hook_->on_detected(entry.seq, entry.fr_fault_cycle, now_);
      stats_.detection_latency.add(now_ - entry.fr_fault_cycle);
    }
  } else if (entry.fr_faulted && fault_hook_ != nullptr) {
    ++stats_.faults_undetected;
    fault_hook_->on_undetected(entry.seq);
  }
}

}  // namespace reese::core
