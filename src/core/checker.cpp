#include "core/checker.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/snapshot.h"
#include "core/pipeline.h"

namespace reese::core {

using isa::ExecClass;

bool recompute_and_compare(const isa::Instruction& inst, Addr pc,
                           u64 rs1_value, u64 rs2_value, Addr mem_addr,
                           Addr p_next, u64 p_result, u64 load_value,
                           const InjectedFault& fault) {
  // Re-run the computation from the stored operands — the same semantics
  // function the P stream used, as in hardware where it is the same ALU.
  // The comparator is branch-free: each path accumulates a difference word
  // (XOR of the recomputed and stored values) instead of testing and
  // short-circuiting, and a single final test decides mismatch. This keeps
  // the per-comparison work a straight dependency chain the branch
  // predictor never sees.
  u64 r_value = 0;
  u64 aux_diff = 0;
  const isa::OpInfo& info = inst.info();
  if (info.exec_class == ExecClass::kLoad) {
    // The reload returns the same architecturally-correct value the P load
    // saw (all older stores have committed; younger ones have not).
    r_value = load_value;
    const isa::ComputeOut out = isa::compute(inst, rs1_value, rs2_value, pc);
    aux_diff = out.addr ^ mem_addr;
  } else {
    const isa::ComputeOut out = isa::compute(inst, rs1_value, rs2_value, pc);
    if (info.exec_class == ExecClass::kStore) {
      r_value = out.value;
      aux_diff = out.addr ^ mem_addr;
    } else if (isa::is_cond_branch(inst.op)) {
      r_value = out.taken ? 1 : 0;
      // Not-taken branches carry no target to verify; the all-ones/all-zeros
      // mask zeroes the target term without a second branch.
      aux_diff = (out.target ^ p_next) & (0 - static_cast<u64>(out.taken));
    } else if (isa::is_jump(inst.op)) {
      r_value = out.value;  // link value
      aux_diff = out.target ^ p_next;
    } else if (inst.op == isa::Opcode::kOut) {
      r_value = rs1_value;
    } else {
      r_value = out.value;
    }
  }

  if (fault.flip_r) r_value = flip_bit(r_value, fault.bit);
  return ((r_value ^ p_result) | aux_diff) != 0;
}

void Checker::commit() { core_.commit_from_ruu(); }

// Idle R-queue id state: the queue's next id, the 1-of-k rotation counter
// and the R issue cursor of a queue that never held an entry.
void Checker::save_idle(SnapshotWriter* writer) {
  writer->put_u64(1);
  writer->put_u64(0);
  writer->put_u64(1);
}

void Checker::load_idle(SnapshotReader* reader) {
  for (int field = 0; field < 3; ++field) reader->get_u64();
}

std::optional<Cycle> Checker::acquire_r_unit(const isa::Instruction& inst,
                                             Addr pc, Addr mem_addr,
                                             bool architectural) {
  const CoreConfig& config = core_.config_;
  FuPool& fu_pool = core_.fu_pool_;
  const Cycle now = core_.now_;
  const ExecClass exec_class = inst.info().exec_class;
  if (exec_class == ExecClass::kLoad) {
    // R-stream loads recompute the effective address on an integer ALU
    // and re-access the D-cache through a memory port (§4.4: the P-stream
    // access brought the line in, so the access almost always hits).
    if (!fu_pool.try_acquire(FuKind::kMemPort, now, 1)) return std::nullopt;
    const Cycle complete_at =
        now + core_.hierarchy_->data_access(mem_addr, false);
    if (core_.mem_site_armed()) core_.drain_mem_site_events(pc, architectural);
    return complete_at;
  }
  if (exec_class == ExecClass::kStore) {
    // Stores re-verify their effective address and value through the
    // memory pipeline (AGU + store-buffer check) or a plain ALU; the
    // single architectural cache write happens at commit.
    const FuKind unit = config.reese.r_store_uses_port ? FuKind::kMemPort
                                                       : FuKind::kIntAlu;
    if (!fu_pool.try_acquire(unit, now, 1)) return std::nullopt;
    return now + 1;
  }
  if (exec_class == ExecClass::kNone) return now + 1;
  OpTiming timing = op_timing(exec_class, config);
  // The comparator staging cost applies to the single-cycle ALU paths;
  // long-latency units already have output buffering.
  if (timing.fu == FuKind::kIntAlu || timing.fu == FuKind::kFpAlu) {
    timing.issue_latency = std::max(
        {timing.issue_latency, config.reese.r_fu_occupancy, u32{1}});
  }
  if (!fu_pool.try_acquire(timing.fu, now, timing.issue_latency)) {
    return std::nullopt;
  }
  return now + timing.result_latency;
}

std::unique_ptr<Checker> make_checker(Pipeline* core,
                                      const ReeseConfig& config) {
  if (!config.enabled) return nullptr;
  return config.scheme == RedundancyScheme::kFranklin
             ? make_franklin_checker(core)
             : make_reese_checker(core);
}

}  // namespace reese::core
