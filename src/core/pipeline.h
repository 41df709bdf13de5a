// The out-of-order superscalar core, SimpleScalar sim-outorder style, with
// a pluggable redundancy checker.
//
// Pipeline (Figure 1 of the paper):
//
//   Fetch -> Dispatch -> Sched -> Exec/Mem -> Writeback -> [checker] -> Commit
//
// Modelling approach (execution-driven, like sim-outorder):
//  * Instructions execute *functionally, in program order, at dispatch*
//    against the front-end architectural state. The RUU then tracks only
//    timing: register dependencies via a create-vector, structural hazards
//    via the FU pool, memory ordering via the LSQ.
//  * When a branch dispatches and its predicted next-PC differs from the
//    just-computed actual next-PC, the core enters "spec mode": younger
//    instructions keep dispatching down the wrong path against a
//    copy-on-write register/memory overlay (realistic wrong-path cache
//    pollution) until the branch reaches writeback, which squashes them.
//  * Redundancy (REESE or Franklin) is a Checker (checker.h) the stages
//    call at fixed seams (DESIGN.md §6); the baseline runs with none.
//
// Stage evaluation order within one cycle is commit, writeback, issue,
// dispatch, fetch (same as sim-outorder's main loop) so results written
// back in cycle N can feed a dependent issue in cycle N.
#pragma once

#include <memory>
#include <vector>

#include "branch/predictor.h"
#include "core/config.h"
#include "core/event_queue.h"
#include "core/fault_hook.h"
#include "core/fu_pool.h"
#include "core/spec_overlay.h"
#include "core/stats.h"
#include "core/trace.h"
#include "isa/executor.h"
#include "isa/program.h"
#include "mem/hierarchy.h"

namespace reese::core {

/// Why run() returned.
enum class StopReason : u8 {
  kCommitTarget,  ///< reached the requested committed-instruction count
  kHalted,        ///< the program executed HALT
  kBadPc,         ///< the true path left the text segment (program bug)
  kCycleLimit,    ///< safety limit hit (likely a modelling deadlock)
};

const char* stop_reason_name(StopReason reason);

class Checker;

class Pipeline {
 public:
  /// `program` must outlive the pipeline. A fresh memory image is created
  /// and the program's data is loaded into it.
  Pipeline(const isa::Program& program, const CoreConfig& config);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Simulate until `commit_target` instructions have committed (or HALT /
  /// bad PC / `cycle_limit` cycles). Callable repeatedly; state persists.
  StopReason run(u64 commit_target, Cycle cycle_limit = ~Cycle{0});

  /// Advance exactly one cycle.
  void cycle();

  // --- checkpoint/restore (checkpoint.cpp) --------------------------------

  /// True when no in-flight microarchitectural state remains: fetch queue,
  /// RUU, LSQ and event queues empty, no wrong-path speculation, and the
  /// checker quiescent (R-stream Queue empty, no outstanding R executions).
  bool quiescent() const;

  /// Suppress fetch and keep cycling until quiescent() — the drain barrier
  /// snapshots land on. Drain cycles are part of simulated execution (they
  /// advance the clock and the per-cycle stats deterministically), so two
  /// runs that drain at the same commit counts stay bit-identical whether
  /// or not either was killed and resumed in between. Returns false if the
  /// pipeline fails to quiesce within `limit` cycles (a modelling bug).
  bool drain_to_barrier(Cycle limit = 1'000'000);

  /// Serialize the complete simulation state (architectural state, memory
  /// image, predictor/BTB/RAS, cache/TLB tags, FU pool, R-queue id state,
  /// stats). Requires quiescent().
  void save_state(SnapshotWriter* writer) const;

  /// Restore save_state() output into this pipeline. The pipeline must be
  /// freshly constructed from the same program and configuration; errors
  /// (truncation, geometry mismatches) latch on the reader.
  void load_state(SnapshotReader* reader);

  const CoreStats& stats() const { return stats_; }
  const CoreConfig& config() const { return config_; }
  mem::Hierarchy& hierarchy() { return *hierarchy_; }
  FuPool& fu_pool() { return fu_pool_; }

  /// Front-end architectural state (the in-order functional machine). After
  /// draining, this is the golden final state for equivalence checks.
  const isa::ArchState& arch_state() const { return front_state_; }
  mem::MainMemory& memory() { return memory_; }

  bool halted() const { return halted_; }

  /// Install a fault-injection hook (may be nullptr). Not owned. The
  /// hook's site() is cached here: a non-kResult site arms the per-cycle
  /// component-strike poll (site_faults.cpp).
  void set_fault_hook(FaultHook* hook) {
    fault_hook_ = hook;
    fault_site_ = hook != nullptr ? hook->site() : FaultSite::kResult;
  }

  /// Install a pipeline tracer (may be nullptr). Not owned.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Multi-line stats report.
  std::string report() const;

 private:
  // The checkers run the redundancy policy on the core's own structures.
  friend class Checker;
  friend class ReeseChecker;
  friend class FranklinChecker;

  // --- internal structures ----------------------------------------------

  /// A fetched instruction waiting in the fetch queue.
  struct FetchedInst {
    isa::Instruction inst;
    Addr pc = 0;
    Addr predicted_next = 0;
    bool predicted_taken = false;
    bool used_direction_predictor = false;
    u64 pred_meta = 0;
    branch::ReturnAddressStack::Checkpoint ras_checkpoint{};
    bool is_pad = false;  ///< fabricated NOP for an out-of-text fetch PC
  };

  /// Handle to an RUU slot that survives slot reuse.
  struct RuuRef {
    u32 slot = 0;
    u32 gen = 0;
  };

  struct Consumer {
    RuuRef ref;
    u8 operand = 0;  ///< 0 = rs1 dependency, 1 = rs2 dependency
  };

  struct RuuEntry {
    bool valid = false;
    u32 gen = 0;
    isa::Instruction inst;
    Addr pc = 0;
    InstSeq seq = 0;
    bool spec = false;

    // Values captured by dispatch-time functional execution.
    u64 rs1_value = 0;
    u64 rs2_value = 0;
    u64 result = 0;
    Addr mem_addr = 0;
    bool taken = false;
    Addr actual_next = 0;

    // Prediction bookkeeping (control instructions).
    bool is_control = false;
    Addr predicted_next = 0;
    bool mispredicted = false;
    bool used_direction_predictor = false;
    u64 pred_meta = 0;
    branch::ReturnAddressStack::Checkpoint ras_checkpoint{};

    // Scheduling state.
    bool dep_ready[2] = {true, true};
    bool issued = false;
    bool completed = false;
    /// The result has forwarded (set by complete_entry). Under Franklin
    /// the entry stays incomplete through its duplicate execution.
    bool result_ready = false;
    bool released = false;  ///< copied into the R-queue (early release off)

    // Component-site campaigns: a strike landed in this entry's stored
    // result (kRuu) or effective address (kLsq) and has not resolved yet.
    bool site_faulted = false;
    Cycle site_fault_cycle = 0;

    Cycle issue_cycle = 0;
    Cycle complete_cycle = 0;
    std::vector<Consumer> consumers;

    bool deps_ready() const { return dep_ready[0] && dep_ready[1]; }
    bool is_load() const { return isa::is_load(inst.op); }
    bool is_store() const { return isa::is_store(inst.op); }

    /// Absolute LSQ ticket (memory ops only): position in the LSQ equals
    /// `lsq_ticket - lsq_ticket_head_`, so plan_load never scans to locate
    /// itself.
    u64 lsq_ticket = 0;

    /// Re-arm a recycled slot for a new dispatch. Only the fields dispatch
    /// does not overwrite are reset — a whole-struct `*this = RuuEntry{}`
    /// copied ~200 bytes per dispatched instruction and dominated the
    /// profile. The consumers vector keeps its capacity (the one heap
    /// block in the entry).
    void reset_for_dispatch(u32 new_gen) {
      consumers.clear();
      valid = true;
      gen = new_gen;
      mispredicted = false;
      dep_ready[0] = dep_ready[1] = true;
      issued = false;
      completed = false;
      result_ready = false;
      released = false;
      site_faulted = false;
      site_fault_cycle = 0;
      issue_cycle = 0;
      complete_cycle = 0;
    }
  };

  /// Fixed-capacity FIFO for the fetch queue: pops the head in O(1) and
  /// never reallocates. Indices wrap by compare, not by `%` — the capacity
  /// is not a power of two, so modulo is a hardware divide on the hottest
  /// per-instruction paths.
  class FetchRing {
   public:
    void init(u32 capacity) {
      ring_.resize(capacity);
      capacity_ = capacity;
    }
    bool empty() const { return count_ == 0; }
    usize size() const { return count_; }
    FetchedInst& front() { return ring_[head_]; }
    /// Claim the tail slot for in-place filling (avoids copying the
    /// ~100-byte FetchedInst twice per fetched instruction).
    FetchedInst& emplace_back() {
      u32 tail = head_ + count_;
      if (tail >= capacity_) tail -= capacity_;
      ++count_;
      return ring_[tail];
    }
    void pop_front() {
      if (++head_ == capacity_) head_ = 0;
      --count_;
    }
    void clear() {
      head_ = 0;
      count_ = 0;
    }

   private:
    std::vector<FetchedInst> ring_;
    u32 head_ = 0;
    u32 count_ = 0;
    u32 capacity_ = 0;
  };

  // --- per-stage helpers (pipeline.cpp) -----------------------------------

  void stage_fetch();
  void stage_dispatch();
  void stage_issue();
  void stage_writeback();
  void stage_commit();

  /// Predict the next fetch PC for a just-fetched control instruction and
  /// fill the prediction fields of `fetched`.
  void predict_control(FetchedInst* fetched);

  /// Dispatch-time functional execution of one instruction.
  void execute_at_dispatch(RuuEntry* entry);

  /// Register-dependency linking through the create-vector.
  void link_dependencies(RuuEntry* entry, u32 slot);

  /// Issue plan for a load under LSQ ordering rules: blocked (unknown or
  /// unready older store), forwarded from an older store (1 cycle, no
  /// memory port), or a D-cache access (port + cache latency).
  enum class LoadPlan : u8 { kBlocked, kForward, kCache };
  LoadPlan plan_load(u32 ruu_slot);

  /// A P-stream execution of `slot` finished: record the completion
  /// cycle, wake consumers and resolve the entry if it is a branch. A
  /// duplicate execution goes to the checker instead.
  void complete_entry(u32 slot);

  /// Squash all RUU/LSQ/IFQ entries younger than `branch_slot` and redirect
  /// fetch to the branch's actual target.
  void recover_from_mispredict(u32 branch_slot);

  /// Commit of the RUU head entry (stores write the cache). Returns false
  /// if the head cannot commit this cycle.
  bool commit_head();

  /// In-order commit from the RUU head, up to commit_width: the baseline's
  /// commit stage and the default Checker::commit().
  void commit_from_ruu();

  // --- result flips and comparison verdicts --------------------------------

  /// Ask the fault hook whether to flip `entry`'s result on its way to the
  /// check: a P-side flip lands in `*stored_result`, an R-side one is left
  /// for recompute_and_compare. Inactive without a hook or a flip.
  InjectedFault inject_result_fault(const RuuEntry& entry, u64* stored_result);

  /// Settle one check: a mismatch is a detected error (recovery freeze),
  /// an injected flip without one escaped.
  void resolve_check(bool mismatch, const InjectedFault& fault, InstSeq seq,
                     Addr pc, const isa::Instruction& inst);

  // --- component fault sites (site_faults.cpp) -----------------------------

  /// Poll the hook for a strike and deliver it to the targeted structure.
  /// Called once per cycle (before the stages) when fault_site_ != kResult.
  void poll_site_fault();
  void strike_ruu(const SiteStrike& strike);
  void strike_lsq(const SiteStrike& strike);
  /// A D-L1/D-TLB strike; `poisoned` is false when it hit nothing valid.
  void strike_memory(bool poisoned);
  /// Report a resolved strike (injected_at = the strike cycle).
  void report_site_outcome(FaultOutcome outcome, Addr pc, Cycle injected_at);
  /// After a data_access(), convert poison consumptions/clears recorded by
  /// the D-L1/D-TLB into site outcomes attributed to `pc`. `architectural`
  /// is false for wrong-path accesses (a squashed consumer masks the upset).
  void drain_mem_site_events(Addr pc, bool architectural);
  /// True when the active site poisons memory structures — gates the
  /// drain calls after the four data-access points.
  bool mem_site_armed() const {
    return fault_site_ == FaultSite::kDCache ||
           fault_site_ == FaultSite::kDTlb;
  }

  // --- small utilities -----------------------------------------------------

  bool ref_alive(const RuuRef& ref) const {
    return ruu_[ref.slot].valid && ruu_[ref.slot].gen == ref.gen;
  }
  // Ring arithmetic by compare-and-subtract: the ring sizes are config
  // values (not powers of two), so `%` would be an integer divide on paths
  // run several times per simulated instruction.
  u32 ruu_index_at(u32 position) const {  // position 0 == head
    u32 index = ruu_head_ + position;
    if (index >= config_.ruu_size) index -= config_.ruu_size;
    return index;
  }
  u32 lsq_index_at(u32 position) const {  // position 0 == head
    u32 index = lsq_head_ + position;
    if (index >= config_.lsq_size) index -= config_.lsq_size;
    return index;
  }
  /// unissued_mask_ bit for an RUU slot. The &63 keeps the shift defined
  /// even when ruu_size > 64 (the mask is maintained but not scanned then).
  static u64 ruu_mask_bit(u32 slot_index) {
    return u64{1} << (slot_index & 63);
  }
  /// Attempt issue of one awaiting RUU slot; decrements `*budget` on
  /// success. Shared by the mask scan and the fallback position walk.
  void try_issue_slot(u32 slot_index, u32* budget);
  /// Free the RUU head slot (entry must be at the head).
  void free_ruu_head();


  void enter_spec_mode();

  // --- members -------------------------------------------------------------

  const isa::Program& program_;
  CoreConfig config_;

  mem::MainMemory memory_;
  isa::DirectDataSpace direct_space_{&memory_};
  std::unique_ptr<mem::Hierarchy> hierarchy_;
  FuPool fu_pool_;

  std::unique_ptr<branch::DirectionPredictor> direction_;
  /// Non-null iff direction_ is a GsharePredictor (the paper config).
  /// Per-branch predict/update/repair go through this concrete pointer so
  /// the inline gshare methods apply; other predictors use the vtable.
  branch::GsharePredictor* gshare_ = nullptr;
  branch::Btb btb_;
  branch::ReturnAddressStack ras_;

  // Front-end functional state.
  isa::ArchState front_state_;
  bool spec_mode_ = false;
  isa::ArchState spec_state_;  ///< wrong-path register state
  SpecOverlay spec_overlay_{&memory_};
  u32 spec_branch_slot_ = 0;   ///< RUU slot of the mispredicted branch

  // Fetch.
  Addr fetch_pc_;
  Cycle fetch_stall_until_ = 0;
  bool drain_fetch_stall_ = false;  ///< drain_to_barrier() suppresses fetch
  FetchRing ifq_;  ///< FIFO, front = oldest

  // Decoded-text fast path: the program's instructions are pre-decoded at
  // load; fetch reads them through this cached pointer/bounds pair instead
  // of re-walking Program::contains_pc + Program::at per instruction.
  const isa::Instruction* code_ = nullptr;
  Addr code_base_ = 0;
  usize code_count_ = 0;

  /// contains_pc + at() in one bounds check against the cached text span.
  const isa::Instruction* decoded_at(Addr pc) const {
    const Addr offset = pc - code_base_;
    if ((offset & 3) != 0 || (offset >> 2) >= code_count_) return nullptr;
    return code_ + (offset >> 2);
  }

  // RUU ring buffer.
  std::vector<RuuEntry> ruu_;
  u32 ruu_head_ = 0;
  u32 ruu_count_ = 0;

  // LSQ: ring of RUU slot indices in program order.
  std::vector<u32> lsq_;
  u32 lsq_head_ = 0;
  u32 lsq_count_ = 0;
  /// Absolute ticket of the LSQ head entry; RuuEntry::lsq_ticket minus this
  /// is the entry's current LSQ position (see plan_load).
  u64 lsq_ticket_head_ = 0;

  /// One bit per RUU slot that is valid, unissued, and operand-ready
  /// (`valid && !issued && !completed && deps_ready()`) — a ready list.
  /// stage_issue scans these bits in program order instead of walking the
  /// multi-cache-line entries of a mostly in-flight or dependency-blocked
  /// window. Maintained at dispatch (set when ready), consumer wakeup
  /// (set when the last operand arrives), issue (clear), squash/free
  /// (clear), and Checker::arm_duplicate (set again — the duplicate
  /// execution re-enters the scan). Only used when ruu_size <= 64 (every
  /// in-tree config); larger windows fall back to the position walk.
  u64 unissued_mask_ = 0;
  bool ruu_mask_scan_ = true;  ///< config_.ruu_size <= 64

  // Create-vectors: architectural register -> in-flight producer. cv_ is
  // the true-path map; spec_cv_ is its wrong-path shadow (copied on spec
  // entry, discarded at recovery).
  std::vector<RuuRef> cv_;
  std::vector<RuuRef> spec_cv_;

  // Writeback event queue (a calendar queue indexed by cycle delta; see
  // event_queue.h for why it is not a std::map).
  CalendarQueue<RuuRef> p_events_;

  /// The redundancy checker; nullptr for the baseline.
  std::unique_ptr<Checker> checker_;

  // Run control.
  Cycle now_ = 0;
  InstSeq next_seq_ = 1;
  bool halted_ = false;
  bool bad_pc_ = false;
  bool fetch_done_ = false;  ///< HALT dispatched on the true path

  FaultHook* fault_hook_ = nullptr;
  /// Cached fault_hook_->site(); kResult keeps the component poll disabled
  /// so legacy campaigns and plain runs pay one branch per cycle.
  FaultSite fault_site_ = FaultSite::kResult;
  /// Strike cycles of outstanding D-L1/D-TLB poisons, oldest first
  /// (site_faults.cpp uses it for detection-latency attribution).
  std::vector<Cycle> mem_poison_pending_;
  Tracer* tracer_ = nullptr;

  /// Emit a trace event if a tracer is installed.
  void trace(TraceKind kind, InstSeq seq, Addr pc,
             const isa::Instruction& inst, bool spec) {
    if (tracer_ == nullptr) return;
    tracer_->record(TraceEvent{kind, now_, seq, pc, inst, spec});
  }

  CoreStats stats_;
};

}  // namespace reese::core
