// Component-targeted fault injection (DESIGN.md §16).
//
// When the installed FaultHook targets a FaultSite other than kResult, the
// pipeline polls it once per cycle and, on a strike, corrupts the named
// microarchitectural structure: an RUU entry's stored result, an R-stream
// Queue slot (REESE's own checker state), an LSQ effective address,
// predictor/BTB bits, or a D-L1/D-TLB line via the poison model in mem/.
// Every strike later resolves to exactly one masked/detected/SDC outcome,
// reported back through FaultHook::on_site_outcome with the static PC that
// owned (or consumed) the corrupted state — the root-cause attribution the
// component-AVF campaigns aggregate.
//
// Resolution points live where the corrupted state dies:
//   * squash (recover_from_mispredict)      -> masked
//   * RUU-head commit (commit_head; baseline, Franklin) -> SDC if the value
//     is architecturally live, else masked
//   * R-queue-head commit (ReeseChecker)   -> detected on mismatch; an
//     escape is SDC for datapath state and masked for checker-only state
//   * cache/TLB poison consumption/eviction -> drained after data accesses
// The `rqueue` site is the checker's (Checker::strike_rqueue); with no
// R-stream Queue every such strike is masked.
// Strikes still unresolved at the end of a run (in-flight queue entries,
// un-touched poisoned lines) are finalized as masked by the injector.
#include <cassert>

#include "common/bitutil.h"
#include "core/checker.h"
#include "core/pipeline.h"

namespace reese::core {

void Pipeline::poll_site_fault() {
  const SiteStrike strike = fault_hook_->on_site_cycle(now_);
  if (!strike.strike) return;
  switch (fault_site_) {
    case FaultSite::kResult:    break;  // poll not armed for kResult
    case FaultSite::kRuu:       strike_ruu(strike); break;
    case FaultSite::kRQueue:
      if (checker_ == nullptr || !checker_->strike_rqueue(strike)) {
        report_site_outcome(FaultOutcome::kMasked, 0, now_);
      }
      break;
    case FaultSite::kLsq:       strike_lsq(strike); break;
    case FaultSite::kPredictor:
      // Predictor and BTB state is architecturally dead by construction: a
      // flipped pattern counter or BTB target can only cost a misprediction
      // that dispatch repairs. The flip is applied for real (the timing
      // perturbation is genuine) and the strike resolves masked at once:
      // the campaign's AVF≈0 ground-truth control.
      if (gshare_ != nullptr) {
        gshare_->flip_counter_bit(strike.cell, strike.bit);
      }
      report_site_outcome(FaultOutcome::kMasked, 0, now_);
      break;
    case FaultSite::kBtb:
      btb_.flip_target_bit(strike.cell, strike.bit);
      report_site_outcome(FaultOutcome::kMasked, 0, now_);
      break;
    case FaultSite::kDCache:
      strike_memory(hierarchy_->dl1().poison_random_line(strike.cell));
      break;
    case FaultSite::kDTlb:
      strike_memory(hierarchy_->dtlb().poison_random_entry(strike.cell));
      break;
  }
}

void Pipeline::report_site_outcome(FaultOutcome outcome, Addr pc,
                                   Cycle injected_at) {
  fault_hook_->on_site_outcome(outcome, pc, injected_at, now_);
}

void Pipeline::strike_ruu(const SiteStrike& strike) {
  // Strike a physical RUU slot, occupied or not — the structure's
  // vulnerability includes its empty entries, exactly like a hardware
  // campaign hitting a random flop.
  const u32 slot_index = static_cast<u32>(strike.cell % config_.ruu_size);
  RuuEntry& entry = ruu_[slot_index];
  if (!entry.valid) {
    report_site_outcome(FaultOutcome::kMasked, 0, now_);
    return;
  }
  if (entry.released || entry.site_faulted) {
    // Released entries are dead copies (the R-queue owns the live state);
    // a second strike on an already-struck entry adds nothing.
    report_site_outcome(FaultOutcome::kMasked, entry.pc, now_);
    return;
  }
  // Flip a bit of the stored result. Functional execution happened at
  // dispatch, so this is measurement-only for consumers — it corrupts what
  // commit (baseline) or the release-to-R-queue copy (REESE) will see.
  entry.result = flip_bit(entry.result, strike.bit & 63);
  entry.site_faulted = true;
  entry.site_fault_cycle = now_;
}

void Pipeline::strike_lsq(const SiteStrike& strike) {
  const u32 position = static_cast<u32>(strike.cell % config_.lsq_size);
  if (position >= lsq_count_) {
    report_site_outcome(FaultOutcome::kMasked, 0, now_);
    return;
  }
  RuuEntry& entry = ruu_[lsq_[lsq_index_at(position)]];
  assert(entry.valid && (entry.is_load() || entry.is_store()));
  if (entry.released || entry.site_faulted) {
    report_site_outcome(FaultOutcome::kMasked, entry.pc, now_);
    return;
  }
  // Flip a bit of the effective address. Loaded/stored *values* stay
  // functional (captured at dispatch), but the corrupted address perturbs
  // cache timing and LSQ ordering for real, reaches the baseline's commit
  // write, and is what REESE's address comparison (aux_diff) checks.
  entry.mem_addr = flip_bit(entry.mem_addr, strike.bit & 63);
  entry.site_faulted = true;
  entry.site_fault_cycle = now_;
}

void Pipeline::strike_memory(bool poisoned) {
  // A poison resolves when drain_mem_site_events sees it consumed or
  // cleared; a strike on an invalid line/entry has nothing to poison.
  if (poisoned) {
    mem_poison_pending_.push_back(now_);
  } else {
    report_site_outcome(FaultOutcome::kMasked, 0, now_);
  }
}

void Pipeline::drain_mem_site_events(Addr pc, bool architectural) {
  u32 consumed = 0;
  u32 cleared = 0;
  if (fault_site_ == FaultSite::kDCache) {
    consumed = hierarchy_->dl1().take_poison_consumed();
    cleared = hierarchy_->dl1().take_poison_cleared();
  } else {
    consumed = hierarchy_->dtlb().take_poison_consumed();
    cleared = hierarchy_->dtlb().take_poison_cleared();
  }
  if (consumed == 0 && cleared == 0) return;

  const auto pop_injected_at = [this]() {
    // Poison strikes resolve roughly in injection order; the FIFO gives a
    // deterministic injected_at for the latency measurement.
    if (mem_poison_pending_.empty()) return now_;
    const Cycle injected_at = mem_poison_pending_.front();
    mem_poison_pending_.erase(mem_poison_pending_.begin());
    return injected_at;
  };
  for (u32 i = 0; i < consumed; ++i) {
    // The access that just ran read corrupt data (or translated through a
    // corrupt entry). Both the P access and REESE's R re-access read the
    // SAME corrupted structure, so the comparator sees agreeing copies:
    // REESE is blind here, and an architectural consumer means SDC. A
    // wrong-path consumer squashes — masked.
    report_site_outcome(
        architectural ? FaultOutcome::kSdc : FaultOutcome::kMasked, pc,
        pop_injected_at());
  }
  for (u32 i = 0; i < cleared; ++i) {
    // Overwritten or evicted before any read: the corruption left the
    // structure unconsumed.
    report_site_outcome(FaultOutcome::kMasked, 0, pop_injected_at());
  }
}

}  // namespace reese::core
