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
// is exactly the structural pressure REESE's queue removes. Commit is the
// baseline's, in order from the RUU head.
#include <cassert>
#include <vector>

#include "core/checker.h"
#include "core/pipeline.h"

namespace reese::core {

class FranklinChecker final : public Checker {
 public:
  explicit FranklinChecker(Pipeline* core)
      : Checker(core, /*duplicates=*/true), stored_(core_.config_.ruu_size) {}

  void arm_duplicate(u32 slot) override;
  bool issue_duplicate(u32 slot) override;
  void complete_duplicate(u32 slot) override;

 private:
  /// The comparator's reference copy of one RUU slot's first result; the
  /// fault hook may corrupt it (or schedule a flip of the duplicate's
  /// output).
  struct StoredResult {
    u64 value = 0;
    InjectedFault fault;
  };
  std::vector<StoredResult> stored_;  ///< indexed by RUU slot
};

std::unique_ptr<Checker> make_franklin_checker(Pipeline* core) {
  return std::make_unique<FranklinChecker>(core);
}

void FranklinChecker::arm_duplicate(u32 slot) {
  // The first execution's result has forwarded to dependents (only the
  // commit is gated, as §4.3 of the paper describes for REESE) and
  // resolved any branch; the duplicate only verifies it.
  Pipeline::RuuEntry& entry = core_.ruu_[slot];
  StoredResult& stored = stored_[slot];
  stored.value = entry.result;
  stored.fault = entry.spec ? InjectedFault{}
                            : core_.inject_result_fault(entry, &stored.value);

  // Re-arm for the duplicate execution; the entry re-enters the issue scan.
  entry.issued = false;
  core_.unissued_mask_ |= Pipeline::ruu_mask_bit(slot);
}

bool FranklinChecker::issue_duplicate(u32 slot) {
  Pipeline& core = core_;
  Pipeline::RuuEntry& entry = core.ruu_[slot];
  assert(entry.result_ready && !entry.issued && !entry.completed);

  const std::optional<Cycle> complete_at =
      acquire_r_unit(entry.inst, entry.pc, entry.mem_addr, !entry.spec);
  if (!complete_at) return false;

  entry.issued = true;
  core.unissued_mask_ &= ~Pipeline::ruu_mask_bit(slot);
  core.stats_.separation.add(core.now_ - entry.issue_cycle);
  core.p_events_.schedule(*complete_at, core.now_,
                          Pipeline::RuuRef{slot, entry.gen});
  core.trace(TraceKind::kRIssue, entry.seq, entry.pc, entry.inst, entry.spec);
  ++core.stats_.issued_r;
  return true;
}

void FranklinChecker::complete_duplicate(u32 slot) {
  Pipeline& core = core_;
  Pipeline::RuuEntry& entry = core.ruu_[slot];
  assert(entry.result_ready && !entry.completed);
  entry.completed = true;

  if (entry.spec) return;  // wrong-path duplicates are never compared

  const StoredResult& stored = stored_[slot];
  const bool mismatch = recompute_and_compare(
      entry.inst, entry.pc, entry.rs1_value, entry.rs2_value, entry.mem_addr,
      entry.actual_next, stored.value, entry.result, stored.fault);
  ++core.stats_.comparisons;
  ++core.stats_.committed_r;
  core.trace(TraceKind::kRComplete, entry.seq, entry.pc, entry.inst, false);
  core.resolve_check(mismatch, stored.fault, entry.seq, entry.pc, entry.inst);
}

}  // namespace reese::core
