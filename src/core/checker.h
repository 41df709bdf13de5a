// Redundancy checkers: the soft-error detection scheme a Pipeline runs,
// kept apart from the out-of-order core. The baseline runs with none; the
// core calls a checker at the seams below (DESIGN.md §6 "Checker seams").
// Each checker owns its state, issue/writeback/commit policy, `rqueue`
// fault site and snapshot section: ReeseChecker (reese.cpp, the R-stream
// Queue) and FranklinChecker (franklin.cpp, in-window dual execution).
// Both re-execute through acquire_r_unit(), take result flips from
// Pipeline::inject_result_fault(), compare with recompute_and_compare()
// and settle the verdict with Pipeline::resolve_check().
#pragma once

#include <memory>
#include <optional>

#include "common/types.h"
#include "core/config.h"
#include "core/fault_hook.h"
#include "isa/instruction.h"

namespace reese {
class SnapshotReader;
class SnapshotWriter;
}  // namespace reese

namespace reese::core {

class Pipeline;

/// The comparator: re-run `inst` from its stored operands and compare the
/// result (and, for memory and control instructions, the effective address
/// or target) against the stored primary result `p_result`; true on a
/// mismatch. Loads take `load_value` as the reloaded value. An R-side
/// `fault` flips the recomputed value before the comparison.
bool recompute_and_compare(const isa::Instruction& inst, Addr pc,
                           u64 rs1_value, u64 rs2_value, Addr mem_addr,
                           Addr p_next, u64 p_result, u64 load_value,
                           const InjectedFault& fault);

class Checker {
 public:
  virtual ~Checker() = default;

  /// Every RUU entry executes a second time inside the window: its first
  /// result forwards and resolves branches, arm_duplicate() re-arms it, and
  /// it completes when complete_duplicate() runs.
  const bool duplicates_in_window;

  /// R-stream Queue occupancy, sampled once per cycle after the stages.
  virtual usize occupancy() const { return 0; }
  /// Scheduler-window slots held by in-flight R executions; dispatch
  /// counts them against the RUU size.
  virtual u32 window_slots() const { return 0; }

  /// Issue stage: called before the P-stream scan (`priority_pass`) and
  /// after it; the checker issues in the pass its priority rule picks,
  /// decrementing `*budget` per issued instruction.
  virtual void issue(u32* /*budget*/, bool /*priority_pass*/) {}

  /// The first execution of RUU slot `slot` completed.
  virtual void arm_duplicate(u32 /*slot*/) {}
  /// Issue the second execution of `slot`; false when no unit is free.
  virtual bool issue_duplicate(u32 /*slot*/) { return false; }
  /// The second execution of `slot` completed.
  virtual void complete_duplicate(u32 /*slot*/) {}

  /// Writeback stage, after the P-stream completions.
  virtual void writeback() {}

  /// Commit stage; by default in order from the RUU head, as the baseline.
  virtual void commit();

  /// Deliver an `rqueue` site strike. False when it finds no occupied
  /// R-queue slot; the caller then reports the strike masked.
  virtual bool strike_rqueue(const SiteStrike& /*strike*/) { return false; }

  /// No in-flight checker state (the drain barrier waits for it).
  virtual bool quiescent() const { return true; }

  /// The snapshot's checker section: the R-stream Queue's id state. A
  /// checker without a queue, and the baseline through the static forms,
  /// write the idle values, so every snapshot has the same layout.
  virtual void save(SnapshotWriter* writer) const { save_idle(writer); }
  virtual void load(SnapshotReader* reader) { load_idle(reader); }
  static void save_idle(SnapshotWriter* writer);
  static void load_idle(SnapshotReader* reader);

 protected:
  Checker(Pipeline* core, bool duplicates)
      : duplicates_in_window(duplicates), core_(*core) {}

  /// Claim the unit for one redundant execution of `inst` under the
  /// R-stream resource rules (DESIGN.md §6). Returns the completion cycle,
  /// or nullopt when the unit is busy. A D-cache access drains the
  /// memory-site fault events, charged to `pc` (`architectural` false on
  /// the wrong path).
  std::optional<Cycle> acquire_r_unit(const isa::Instruction& inst, Addr pc,
                                      Addr mem_addr, bool architectural);

  Pipeline& core_;
};

/// The checker `config` selects, or nullptr for the baseline.
std::unique_ptr<Checker> make_checker(Pipeline* core,
                                      const ReeseConfig& config);
std::unique_ptr<Checker> make_reese_checker(Pipeline* core);
std::unique_ptr<Checker> make_franklin_checker(Pipeline* core);

}  // namespace reese::core
