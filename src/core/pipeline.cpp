#include "core/pipeline.h"

#include <algorithm>
#include <cassert>

#include "common/bitutil.h"
#include "common/strutil.h"
#include "core/checker.h"

namespace reese::core {

using isa::ExecClass;
using isa::Opcode;

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kCommitTarget: return "commit-target";
    case StopReason::kHalted: return "halted";
    case StopReason::kBadPc: return "bad-pc";
    case StopReason::kCycleLimit: return "cycle-limit";
  }
  return "?";
}

std::string CoreConfig::summary() const {
  std::string s = format(
      "width=%u ifq=%u ruu=%u lsq=%u ialu=%u imult=%u ports=%u pred=%s",
      issue_width, ifq_size, ruu_size, lsq_size, int_alu_count,
      int_mult_count, mem_port_count,
      branch::predictor_kind_name(predictor));
  if (reese.enabled) {
    if (reese.scheme == RedundancyScheme::kFranklin) {
      s += " FRANKLIN[dual-exec]";
    } else {
      s += format(" REESE[rq=%u early=%d k=%u]", reese.rqueue_size,
                  reese.early_release ? 1 : 0, reese.reexec_interval);
    }
  }
  return s;
}

CoreConfig starting_config() { return CoreConfig{}; }

CoreConfig with_reese(CoreConfig base, u32 spare_alus, u32 spare_mults) {
  base.reese.enabled = true;
  base.int_alu_count += spare_alus;
  base.int_mult_count += spare_mults;
  return base;
}

// ---------------------------------------------------------------------------
// Construction / run loop
// ---------------------------------------------------------------------------

namespace {

/// Create-vector size: 32 integer + 32 FP architectural registers.
constexpr usize kCvSize = isa::kIntRegCount + isa::kFpRegCount;

usize cv_key(u8 reg, bool fp) { return fp ? isa::kIntRegCount + reg : reg; }

}  // namespace

Pipeline::Pipeline(const isa::Program& program, const CoreConfig& config)
    : program_(program),
      config_(config),
      hierarchy_(std::make_unique<mem::Hierarchy>(config.memory)),
      fu_pool_(config),
      direction_(branch::make_predictor(config.predictor)),
      btb_(config.btb_entries, config.btb_associativity),
      ras_(config.ras_depth) {
  assert(config_.ruu_size >= 2 && config_.lsq_size >= 1);
  if (config_.predictor == branch::PredictorKind::kGshare) {
    auto gshare =
        std::make_unique<branch::GsharePredictor>(config_.gshare_history_bits);
    gshare_ = gshare.get();
    direction_ = std::move(gshare);
  }
  ruu_mask_scan_ = config_.ruu_size <= 64;
  ruu_.resize(config_.ruu_size);
  lsq_.resize(config_.lsq_size);
  cv_.assign(kCvSize, RuuRef{});
  spec_cv_.assign(kCvSize, RuuRef{});

  program_.load_data(&memory_);
  front_state_.pc = program_.entry;
  front_state_.set_x(isa::kSpReg, isa::kDefaultStackTop);
  front_state_.set_x(isa::kGpReg, program_.data_base);
  fetch_pc_ = program_.entry;
  ifq_.init(config_.ifq_size);
  code_ = program_.code.data();
  code_base_ = program_.code_base;
  code_count_ = program_.code.size();
  checker_ = make_checker(this, config_.reese);
}

Pipeline::~Pipeline() = default;

StopReason Pipeline::run(u64 commit_target, Cycle cycle_limit) {
  const Cycle start = now_;
  while (stats_.committed < commit_target) {
    if (halted_) return StopReason::kHalted;
    if (bad_pc_) return StopReason::kBadPc;
    if (now_ - start >= cycle_limit) return StopReason::kCycleLimit;
    cycle();
  }
  return StopReason::kCommitTarget;
}

void Pipeline::cycle() {
  // Component-site fault campaigns: one strike poll per cycle, before the
  // stages, so the struck state is what this cycle's stages observe
  // (site_faults.cpp). kResult keeps this a single predicted-false branch.
  if (fault_site_ != FaultSite::kResult) poll_site_fault();

  // Stall attribution (CycleClass): sample the stall counters around the
  // stage evaluation and charge this cycle to exactly one bucket below.
  const u64 committed_before = stats_.committed;
  const u64 rqueue_before = stats_.rqueue_full_stall_cycles;
  const u64 ruu_before = stats_.ruu_full_stalls;
  const u64 lsq_before = stats_.lsq_full_stalls;
  const u64 ifq_before = stats_.ifq_full_stall_cycles;
  const u64 icache_before = stats_.icache_stall_cycles;

  stage_commit();
  stage_writeback();
  stage_issue();
  stage_dispatch();
  stage_fetch();

  CycleClass cls = CycleClass::kIdle;
  if (stats_.committed > committed_before) {
    cls = CycleClass::kBusy;
  } else if (stats_.rqueue_full_stall_cycles > rqueue_before) {
    cls = CycleClass::kRqueueFull;
  } else if (stats_.ruu_full_stalls > ruu_before) {
    cls = CycleClass::kRuuFull;
  } else if (stats_.lsq_full_stalls > lsq_before) {
    cls = CycleClass::kLsqFull;
  } else if (stats_.ifq_full_stall_cycles > ifq_before) {
    cls = CycleClass::kIfqFull;
  } else if (stats_.icache_stall_cycles > icache_before) {
    cls = CycleClass::kIcache;
  }
  ++stats_.cycle_classes[static_cast<usize>(cls)];

  stats_.ruu_occupancy.add(static_cast<double>(ruu_count_));
  stats_.lsq_occupancy.add(static_cast<double>(lsq_count_));
  stats_.ifq_occupancy.add(static_cast<double>(ifq_.size()));
  if (checker_ != nullptr) {
    stats_.rqueue_occupancy.add(static_cast<double>(checker_->occupancy()));
  }

  ++now_;
  ++stats_.cycles;
}

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

void Pipeline::predict_control(FetchedInst* fetched) {
  const Opcode op = fetched->inst.op;
  const Addr pc = fetched->pc;
  const Addr fallthrough = pc + 4;

  if (op == Opcode::kJal) {
    // Direct target is computable at fetch from the decoded instruction.
    fetched->predicted_taken = true;
    fetched->predicted_next = pc + 4 * static_cast<u64>(fetched->inst.imm);
    if (fetched->inst.rd == isa::kRaReg) ras_.push(fallthrough);
  } else if (op == Opcode::kJalr) {
    const bool is_return = fetched->inst.rs1 == isa::kRaReg &&
                           fetched->inst.rd == isa::kZeroReg;
    Addr target = 0;
    if (is_return) {
      target = ras_.pop();
      fetched->predicted_taken = true;
      fetched->predicted_next = target;
    } else if (btb_.lookup(pc, &target)) {
      fetched->predicted_taken = true;
      fetched->predicted_next = target;
    } else {
      // No target available: fetch falls through and the jump will repair
      // at dispatch (counts as a misprediction).
      fetched->predicted_taken = false;
      fetched->predicted_next = fallthrough;
    }
    if (fetched->inst.rd == isa::kRaReg) ras_.push(fallthrough);
  } else {
    // Conditional branch.
    bool taken = false;
    switch (config_.predictor) {
      case branch::PredictorKind::kNotTaken:
        taken = false;
        break;
      case branch::PredictorKind::kTaken:
        taken = true;
        break;
      case branch::PredictorKind::kBtfn:
        taken = fetched->inst.imm < 0;
        break;
      default: {
        const branch::BranchPrediction prediction =
            gshare_ != nullptr ? gshare_->predict(pc) : direction_->predict(pc);
        taken = prediction.taken;
        fetched->pred_meta = prediction.meta;
        fetched->used_direction_predictor = true;
        break;
      }
    }
    fetched->predicted_taken = taken;
    fetched->predicted_next =
        taken ? pc + 4 * static_cast<u64>(fetched->inst.imm) : fallthrough;
  }
  fetched->ras_checkpoint = ras_.checkpoint();
}

void Pipeline::stage_fetch() {
  if (fetch_done_ || halted_ || bad_pc_ || drain_fetch_stall_) return;
  if (now_ < fetch_stall_until_) {
    ++stats_.icache_stall_cycles;
    return;
  }
  if (ifq_.size() >= config_.ifq_size) {
    ++stats_.ifq_full_stall_cycles;
    return;
  }

  // One I-cache access covers this cycle's fetch block.
  const u32 latency = hierarchy_->inst_access(fetch_pc_);
  if (latency > config_.memory.il1.hit_latency) {
    fetch_stall_until_ = now_ + (latency - config_.memory.il1.hit_latency);
    ++stats_.icache_stall_cycles;
    return;
  }

  for (u32 fetched_count = 0;
       fetched_count < config_.fetch_width && ifq_.size() < config_.ifq_size;
       ++fetched_count) {
    // Fill the ring slot in place; the slot is recycled, so every field a
    // later stage reads unconditionally is (re)written here.
    FetchedInst& fetched = ifq_.emplace_back();
    fetched.pc = fetch_pc_;
    fetched.predicted_next = fetch_pc_ + 4;
    fetched.predicted_taken = false;
    fetched.used_direction_predictor = false;
    fetched.pred_meta = 0;
    fetched.is_pad = false;
    if (const isa::Instruction* decoded = decoded_at(fetch_pc_)) {
      fetched.inst = *decoded;
    } else {
      // Wrong-path fetch beyond the text segment: fabricate a bubble.
      fetched.inst = isa::Instruction{};  // NOP
      fetched.is_pad = true;
    }

    const bool is_control = isa::is_control(fetched.inst.op);
    if (is_control) predict_control(&fetched);

    fetch_pc_ = fetched.predicted_next;
    ++stats_.fetched;

    // A predicted-taken control transfer ends the fetch block.
    if (is_control && fetched.predicted_taken) break;
    // Stop fetching past HALT on what fetch believes is the path.
    if (fetched.inst.op == Opcode::kHalt) break;
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Pipeline::execute_at_dispatch(RuuEntry* entry) {
  isa::ArchState* state = spec_mode_ ? &spec_state_ : &front_state_;
  state->pc = entry->pc;
  // Concrete-space instantiations: memory accesses dispatch directly
  // instead of through the DataSpace vtable.
  const isa::StepOut out =
      spec_mode_ ? isa::step(state, entry->inst, &spec_overlay_)
                 : isa::step(state, entry->inst, &direct_space_);
  entry->rs1_value = out.rs1_value;
  entry->rs2_value = out.rs2_value;
  entry->result = out.result;
  entry->mem_addr = out.compute.addr;
  entry->taken = out.compute.taken;
  entry->actual_next = out.next_pc;
}

void Pipeline::link_dependencies(RuuEntry* entry, u32 slot_index) {
  std::vector<RuuRef>& cv = spec_mode_ ? spec_cv_ : cv_;
  const isa::OpInfo& info = entry->inst.info();

  // Two unrolled operand links (a lambda here stayed out-of-line and showed
  // up as its own entry in dispatch-stage profiles). A producer's value is
  // available once its result is ready, which under Franklin comes one
  // execution before the entry completes.
  if (info.reads_rs1 && (info.is_fp_rs1 || entry->inst.rs1 != isa::kZeroReg)) {
    const RuuRef producer = cv[cv_key(entry->inst.rs1, info.is_fp_rs1)];
    if (ref_alive(producer)) {
      RuuEntry& producer_entry = ruu_[producer.slot];
      if (!producer_entry.result_ready) {
        entry->dep_ready[0] = false;
        producer_entry.consumers.push_back(
            Consumer{{slot_index, entry->gen}, 0});
      }
    }
  }
  if (info.reads_rs2 && (info.is_fp_rs2 || entry->inst.rs2 != isa::kZeroReg)) {
    const RuuRef producer = cv[cv_key(entry->inst.rs2, info.is_fp_rs2)];
    if (ref_alive(producer)) {
      RuuEntry& producer_entry = ruu_[producer.slot];
      if (!producer_entry.result_ready) {
        entry->dep_ready[1] = false;
        producer_entry.consumers.push_back(
            Consumer{{slot_index, entry->gen}, 1});
      }
    }
  }
  if (info.writes_rd && !(entry->inst.rd == isa::kZeroReg && !info.is_fp_rd)) {
    cv[cv_key(entry->inst.rd, info.is_fp_rd)] =
        RuuRef{slot_index, entry->gen};
  }
}

void Pipeline::enter_spec_mode() {
  spec_mode_ = true;
  spec_state_ = front_state_;
  spec_overlay_.clear();
  // Wrong-path dispatches must see the same in-flight producers the true
  // path created so far.
  spec_cv_ = cv_;
}

void Pipeline::stage_dispatch() {
  // In-flight R-stream instructions may hold scheduler-window (RUU)
  // capacity (§5.1: they "proceed through the SimpleScalar pipeline").
  const u32 r_window_slots =
      checker_ != nullptr ? checker_->window_slots() : 0;
  u32 dispatched_count = 0;
  while (dispatched_count < config_.decode_width && !ifq_.empty()) {
    const FetchedInst& fetched = ifq_.front();

    if (ruu_count_ + r_window_slots >= config_.ruu_size) {
      ++stats_.ruu_full_stalls;
      break;
    }
    const bool is_mem = isa::is_mem(fetched.inst.op);
    if (is_mem && lsq_count_ == config_.lsq_size) {
      ++stats_.lsq_full_stalls;
      break;
    }

    if (!spec_mode_) {
      if (fetched.is_pad || decoded_at(fetched.pc) == nullptr) {
        // The true path left the text segment: a program bug, not a
        // misprediction. Stop the machine.
        bad_pc_ = true;
        return;
      }
      assert(front_state_.pc == fetched.pc &&
             "true-path fetch stream diverged without a detected mispredict");
    }

    // Allocate the RUU slot at the tail.
    const u32 slot_index = ruu_index_at(ruu_count_);
    ++ruu_count_;
    RuuEntry& entry = ruu_[slot_index];
    entry.reset_for_dispatch(entry.gen + 1);
    entry.inst = fetched.inst;
    entry.pc = fetched.pc;
    // Sequence numbers count *true-path* instructions only, so they are
    // pure program order — independent of timing and squash behaviour.
    // (Fault schedules rely on this; wrong-path entries reuse the next
    // number but never reach any consumer of it.)
    entry.seq = next_seq_;
    if (!spec_mode_) ++next_seq_;
    entry.spec = spec_mode_;
    entry.is_control = isa::is_control(fetched.inst.op);
    entry.predicted_next = fetched.predicted_next;
    entry.used_direction_predictor = fetched.used_direction_predictor;
    entry.pred_meta = fetched.pred_meta;
    entry.ras_checkpoint = fetched.ras_checkpoint;

    execute_at_dispatch(&entry);

    if (is_mem) {
      entry.lsq_ticket = lsq_ticket_head_ + lsq_count_;
      lsq_[lsq_index_at(lsq_count_)] = slot_index;
      ++lsq_count_;
    }
    link_dependencies(&entry, slot_index);
    // Ready at dispatch → straight into the issue scan; otherwise the
    // producer's completion wakes it into the mask (see complete_entry).
    if (entry.deps_ready()) unissued_mask_ |= ruu_mask_bit(slot_index);

    ++stats_.dispatched;
    if (entry.spec) ++stats_.wrongpath_dispatched;
    trace(TraceKind::kDispatch, entry.seq, entry.pc, entry.inst, entry.spec);
    ++dispatched_count;

    const bool was_spec = entry.spec;
    if (!was_spec && entry.actual_next != entry.predicted_next) {
      // Mispredicted control transfer (or a non-control modelling bug —
      // sequential instructions always match). Recovery happens when this
      // entry reaches writeback; until then the wrong path executes.
      assert(entry.is_control);
      entry.mispredicted = true;
      spec_branch_slot_ = slot_index;
      enter_spec_mode();
    }

    if (!was_spec && entry.inst.op == Opcode::kHalt) {
      // True-path HALT: nothing after it may dispatch or fetch.
      fetch_done_ = true;
      ifq_.clear();
      return;
    }

    ifq_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------------

Pipeline::LoadPlan Pipeline::plan_load(u32 ruu_slot) {
  const RuuEntry& load = ruu_[ruu_slot];
  if (!load.dep_ready[0]) return LoadPlan::kBlocked;
  const Addr load_begin = load.mem_addr;
  const Addr load_end = load_begin + load.inst.info().mem_bytes;

  // Scan older LSQ entries from youngest to oldest; the youngest
  // overlapping store decides. The load locates itself in O(1) via the
  // absolute ticket assigned at dispatch (the previous head-relative scan
  // ran once per blocked-load re-evaluation, every cycle).
  const u32 position_of_load =
      static_cast<u32>(load.lsq_ticket - lsq_ticket_head_);
  assert(position_of_load < lsq_count_ &&
         lsq_[lsq_index_at(position_of_load)] == ruu_slot &&
         "load missing from LSQ");

  u32 index = lsq_index_at(position_of_load);
  for (u32 position = position_of_load; position > 0; --position) {
    index = (index == 0 ? config_.lsq_size : index) - 1;
    const u32 store_slot = lsq_[index];
    const RuuEntry& store = ruu_[store_slot];
    if (!store.is_store()) continue;
    if (!store.dep_ready[0]) return LoadPlan::kBlocked;  // address unknown
    const Addr store_begin = store.mem_addr;
    const Addr store_end = store_begin + store.inst.info().mem_bytes;
    const bool overlap = store_begin < load_end && load_begin < store_end;
    if (!overlap) continue;
    const bool covers = store_begin <= load_begin && store_end >= load_end;
    if (covers) {
      // Store-to-load forwarding once the store data is ready.
      return store.dep_ready[1] ? LoadPlan::kForward : LoadPlan::kBlocked;
    }
    // Partial overlap: wait until the store has fully executed, then go to
    // the cache.
    return store.completed ? LoadPlan::kCache : LoadPlan::kBlocked;
  }
  return LoadPlan::kCache;
}

void Pipeline::stage_issue() {
  u32 budget = config_.issue_width;

  // The checker issues ahead of the P stream when its priority rule says
  // so (REESE's occupancy watermark), otherwise into what the P stream
  // leaves.
  if (checker_ != nullptr) checker_->issue(&budget, /*priority_pass=*/true);

  // P-stream issue: program order over the RUU, visiting only the slots
  // that actually await issue (unissued_mask_). A window full of in-flight
  // instructions costs two count-trailing-zeros loops instead of a walk
  // over the multi-cache-line entries. The two chunks (slots >= head, then
  // slots < head) reproduce ring program order exactly.
  if (ruu_mask_scan_) {
    if (budget > 0 && unissued_mask_ != 0) {
      const u64 head_low_bits = ruu_mask_bit(ruu_head_) - 1;
      const u64 chunks[2] = {unissued_mask_ & ~head_low_bits,
                             unissued_mask_ & head_low_bits};
      for (u64 chunk : chunks) {
        while (chunk != 0 && budget > 0) {
          const u32 slot_index = static_cast<u32>(__builtin_ctzll(chunk));
          chunk &= chunk - 1;
          try_issue_slot(slot_index, &budget);
        }
      }
    }
  } else {
    // ruu_size > 64: position walk (no in-tree config takes this path).
    for (u32 position = 0; position < ruu_count_ && budget > 0; ++position) {
      const u32 slot_index = ruu_index_at(position);
      const RuuEntry& entry = ruu_[slot_index];
      if (!entry.valid || entry.issued || entry.completed) continue;
      try_issue_slot(slot_index, &budget);
    }
  }

  if (checker_ != nullptr) checker_->issue(&budget, /*priority_pass=*/false);

  stats_.issue_per_cycle.add(config_.issue_width - budget);
}

void Pipeline::try_issue_slot(u32 slot_index, u32* budget) {
  // Via the mask scan the entry is always operand-ready; via the >64-RUU
  // fallback walk it may not be — the deps_ready checks below cover both.
  RuuEntry& entry = ruu_[slot_index];
  assert(entry.valid && !entry.issued && !entry.completed);

  if (entry.result_ready) {
    // Only a checker re-arms a finished entry (Franklin's duplicate, which
    // competes for leftover capacity under the R-stream resource rules).
    if (checker_->issue_duplicate(slot_index)) --*budget;
    return;
  }

  const ExecClass exec_class = entry.inst.info().exec_class;
  Cycle complete_at = 0;

  if (exec_class == ExecClass::kLoad) {
    switch (plan_load(slot_index)) {
      case LoadPlan::kBlocked:
        return;
      case LoadPlan::kForward:
        complete_at = now_ + 1;
        break;
      case LoadPlan::kCache: {
        if (!fu_pool_.try_acquire(FuKind::kMemPort, now_, 1)) return;
        complete_at = now_ + hierarchy_->data_access(entry.mem_addr, false);
        if (mem_site_armed()) drain_mem_site_events(entry.pc, !entry.spec);
        break;
      }
    }
  } else if (exec_class == ExecClass::kStore) {
    // Address generation + store-buffer write; both operands must be
    // ready. The cache write happens at commit.
    if (!entry.deps_ready()) return;
    complete_at = now_ + 1;
  } else if (exec_class == ExecClass::kNone) {
    complete_at = now_ + 1;
  } else {
    if (!entry.deps_ready()) return;
    const OpTiming timing = op_timing(exec_class, config_);
    if (!fu_pool_.try_acquire(timing.fu, now_, timing.issue_latency)) return;
    complete_at = now_ + timing.result_latency;
  }

  entry.issued = true;
  unissued_mask_ &= ~ruu_mask_bit(slot_index);
  entry.issue_cycle = now_;
  p_events_.schedule(complete_at, now_, RuuRef{slot_index, entry.gen});
  trace(TraceKind::kIssue, entry.seq, entry.pc, entry.inst, entry.spec);
  ++stats_.issued_p;
  --*budget;
}

// ---------------------------------------------------------------------------
// Writeback
// ---------------------------------------------------------------------------

void Pipeline::stage_writeback() {
  // The empty() guard skips the take/recycle dance on stall-heavy cycles.
  if (!p_events_.empty()) {
    // Moved out of the queue: recovery during completion may not touch the
    // list again, but keep iteration robust against future modification.
    std::vector<RuuRef> refs = p_events_.take(now_);
    for (const RuuRef& ref : refs) {
      if (!ref_alive(ref)) continue;  // squashed in the meantime
      complete_entry(ref.slot);
    }
    p_events_.recycle(std::move(refs));
  }
  if (checker_ != nullptr) checker_->writeback();
}

void Pipeline::complete_entry(u32 slot_index) {
  RuuEntry& entry = ruu_[slot_index];
  assert(entry.valid && entry.issued && !entry.completed);
  if (entry.result_ready) {  // a duplicate execution finished
    checker_->complete_duplicate(slot_index);
    return;
  }
  // The result forwards now; a checker that duplicates in the window keeps
  // the entry incomplete until its second execution compared.
  const bool duplicate = checker_ != nullptr && checker_->duplicates_in_window;
  entry.completed = !duplicate;
  entry.result_ready = true;
  entry.complete_cycle = now_;
  trace(TraceKind::kComplete, entry.seq, entry.pc, entry.inst, entry.spec);

  for (const Consumer& consumer : entry.consumers) {
    if (!ref_alive(consumer.ref)) continue;
    RuuEntry& waiter = ruu_[consumer.ref.slot];
    waiter.dep_ready[consumer.operand] = true;
    // Both operands ready: the waiter re-enters the issue scan. (A waiter
    // with a pending dependency can never have issued or completed.)
    if (waiter.deps_ready()) {
      unissued_mask_ |= ruu_mask_bit(consumer.ref.slot);
    }
  }
  entry.consumers.clear();

  if (entry.is_control && !entry.spec) {
    ++stats_.branches_resolved;
    if (isa::is_cond_branch(entry.inst.op)) {
      ++stats_.cond_branches_resolved;
      if (entry.mispredicted) ++stats_.cond_branch_mispredicts;
    }
    if (entry.used_direction_predictor) {
      if (gshare_ != nullptr) {
        gshare_->update(entry.pc, entry.taken, entry.pred_meta);
      } else {
        direction_->update(entry.pc, entry.taken, entry.pred_meta);
      }
    }
    if (entry.taken && entry.inst.op != Opcode::kJal) {
      btb_.update(entry.pc, entry.actual_next);
    }
    if (entry.mispredicted) {
      ++stats_.branch_mispredicts;
      recover_from_mispredict(slot_index);
    }
  }
  if (duplicate) checker_->arm_duplicate(slot_index);
}

void Pipeline::recover_from_mispredict(u32 branch_slot) {
  assert(spec_mode_ && spec_branch_slot_ == branch_slot);
  const RuuEntry& branch = ruu_[branch_slot];

  // Squash everything younger than the branch (all of it is spec).
  while (ruu_count_ > 0) {
    const u32 tail_slot = ruu_index_at(ruu_count_ - 1);
    if (tail_slot == branch_slot) break;
    RuuEntry& victim = ruu_[tail_slot];
    assert(victim.valid && victim.spec);
    trace(TraceKind::kSquash, victim.seq, victim.pc, victim.inst, true);
    if (isa::is_mem(victim.inst.op)) {
      assert(lsq_count_ > 0);
      assert(lsq_[lsq_index_at(lsq_count_ - 1)] == tail_slot);
      --lsq_count_;
    }
    if (victim.site_faulted) {
      // The corrupted entry dies with the wrong path: masked by squash.
      victim.site_faulted = false;
      report_site_outcome(FaultOutcome::kMasked, victim.pc,
                          victim.site_fault_cycle);
    }
    victim.valid = false;
    ++victim.gen;
    victim.consumers.clear();
    unissued_mask_ &= ~ruu_mask_bit(tail_slot);
    --ruu_count_;
  }

  ifq_.clear();
  spec_mode_ = false;
  spec_overlay_.clear();

  // Repair speculative predictor state.
  if (branch.used_direction_predictor) {
    if (gshare_ != nullptr) {
      gshare_->repair(branch.pred_meta, branch.taken);
    } else {
      direction_->repair(branch.pred_meta, branch.taken);
    }
  }
  ras_.restore(branch.ras_checkpoint);

  // Redirect fetch after the recovery bubble.
  fetch_pc_ = branch.actual_next;
  fetch_stall_until_ =
      std::max(fetch_stall_until_, now_ + 1 + config_.mispredict_penalty);
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

void Pipeline::free_ruu_head() {
  assert(ruu_count_ > 0);
  RuuEntry& head = ruu_[ruu_head_];
  assert(head.valid);
  if (isa::is_mem(head.inst.op)) {
    assert(lsq_count_ > 0 && lsq_[lsq_head_] == ruu_head_);
    if (++lsq_head_ == config_.lsq_size) lsq_head_ = 0;
    --lsq_count_;
    ++lsq_ticket_head_;
  }
  head.valid = false;
  ++head.gen;
  head.consumers.clear();
  unissued_mask_ &= ~ruu_mask_bit(ruu_head_);
  if (++ruu_head_ == config_.ruu_size) ruu_head_ = 0;
  --ruu_count_;
}

bool Pipeline::commit_head() {
  RuuEntry& head = ruu_[ruu_head_];
  if (!head.completed) return false;
  assert(!head.spec && "speculative instruction reached the RUU head");

  if (head.is_store()) {
    if (!fu_pool_.try_acquire(FuKind::kMemPort, now_, 1)) return false;
    hierarchy_->data_access(head.mem_addr, true);
    if (mem_site_armed()) drain_mem_site_events(head.pc, true);
  }

  if (head.site_faulted) {
    // No comparator on this path: the corruption reaches commit. It is SDC
    // when the struck state is architecturally consumed — a written
    // destination register, store data/address, a branch outcome or an OUT
    // operand (the same liveness rule the result-flip injector applies) —
    // and masked otherwise (x0 writes, HALT/NOP).
    const isa::OpInfo& info = head.inst.info();
    const bool live =
        (info.writes_rd &&
         (info.is_fp_rd || head.inst.rd != isa::kZeroReg)) ||
        head.is_store() || isa::is_cond_branch(head.inst.op) ||
        head.inst.op == Opcode::kOut;
    head.site_faulted = false;
    report_site_outcome(live ? FaultOutcome::kSdc : FaultOutcome::kMasked,
                        head.pc, head.site_fault_cycle);
  }

  if (checker_ == nullptr && fault_hook_ != nullptr) {
    // The baseline has no comparator: every injected flip escapes.
    u64 unchecked = head.result;
    resolve_check(false, inject_result_fault(head, &unchecked), head.seq,
                  head.pc, head.inst);
  }

  if (head.inst.op == Opcode::kHalt) halted_ = true;
  trace(TraceKind::kCommit, head.seq, head.pc, head.inst, false);
  free_ruu_head();
  return true;
}

void Pipeline::stage_commit() {
  if (checker_ != nullptr) {
    checker_->commit();
  } else {
    commit_from_ruu();
  }
}

void Pipeline::commit_from_ruu() {
  // Stats are updated once per commit group, not per instruction.
  u32 group = 0;
  while (group < config_.commit_width && ruu_count_ > 0) {
    if (!commit_head()) break;
    ++group;
    if (halted_) break;
  }
  stats_.committed += group;
}

// ---------------------------------------------------------------------------
// Result flips and comparison verdicts
// ---------------------------------------------------------------------------

InjectedFault Pipeline::inject_result_fault(const RuuEntry& entry,
                                            u64* stored_result) {
  if (fault_hook_ == nullptr) return {};
  const FaultDecision decision =
      fault_hook_->on_instruction(entry.seq, now_, entry.pc, entry.inst);
  if (!decision.flip_p && !decision.flip_r) return {};
  ++stats_.faults_injected;
  const InjectedFault fault{true, decision.flip_r, decision.bit % 64, now_};
  if (decision.flip_p) *stored_result = flip_bit(*stored_result, fault.bit);
  return fault;
}

void Pipeline::resolve_check(bool mismatch, const InjectedFault& fault,
                             InstSeq seq, Addr pc,
                             const isa::Instruction& inst) {
  if (mismatch) {
    // Soft error detected. The pipeline (and R-queue) are flushed and the
    // faulting instruction refetched; we charge that as a fetch freeze
    // (see DESIGN.md — architectural state is never actually corrupted,
    // so the re-execution is not replayed).
    ++stats_.errors_detected;
    trace(TraceKind::kError, seq, pc, inst, false);
    fetch_stall_until_ = std::max(
        fetch_stall_until_, now_ + config_.reese.error_recovery_penalty);
    if (fault.active && fault_hook_ != nullptr) {
      fault_hook_->on_detected(seq, fault.cycle, now_);
      stats_.detection_latency.add(now_ - fault.cycle);
    }
  } else if (fault.active && fault_hook_ != nullptr) {
    // An injected flip that no comparison caught (baseline, a skipped
    // 1-of-k instruction, or a flip the comparator never sees).
    ++stats_.faults_undetected;
    fault_hook_->on_undetected(seq);
  }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string Pipeline::report() const {
  using ull = unsigned long long;
  const CoreStats& s = stats_;
  std::string out = format("cycles %llu, committed %llu, IPC %.3f\n",
                           ull{s.cycles}, ull{s.committed}, s.ipc());
  out += format(
      "  fetched %llu, dispatched %llu (%llu wrong-path), issued P %llu"
      " / R %llu\n",
      ull{s.fetched}, ull{s.dispatched}, ull{s.wrongpath_dispatched},
      ull{s.issued_p}, ull{s.issued_r});
  out += format("  branches %llu, mispredicts %llu (cond rate %.2f%%)\n",
                ull{s.branches_resolved}, ull{s.branch_mispredicts},
                100.0 * s.mispredict_rate());
  out += format(
      "  stalls: ruu-full %llu, lsq-full %llu, icache %llu cycles,"
      " rqueue-full %llu cycles\n",
      ull{s.ruu_full_stalls}, ull{s.lsq_full_stalls},
      ull{s.icache_stall_cycles}, ull{s.rqueue_full_stall_cycles});
  out += "  cycle classes: " + s.cycle_class_summary() + "\n";
  out += format("  occupancy: ruu %.1f, lsq %.1f, ifq %.1f, rqueue %.1f\n",
                s.ruu_occupancy.mean(), s.lsq_occupancy.mean(),
                s.ifq_occupancy.mean(), s.rqueue_occupancy.mean());
  if (checker_ != nullptr) {
    out += format(
        "  REESE: enqueued %llu, compared %llu, skipped %llu,"
        " errors detected %llu\n",
        ull{s.rqueue_enqueued}, ull{s.comparisons}, ull{s.rskipped},
        ull{s.errors_detected});
    out += "  " + s.separation.to_string("P->R separation") + "\n";
  }
  return out + hierarchy_->report();
}

}  // namespace reese::core
