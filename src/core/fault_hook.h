// Interface between the pipeline and the fault-injection framework.
//
// The pipeline asks the hook, once per instruction leaving the RUU toward
// commit, whether to corrupt that instruction's stored P result or its
// recomputed R result; it reports back whether the REESE comparator caught
// the corruption. Keeping this as an interface lets src/core stay
// independent of src/faults.
//
// Injection is *measurement-only*: the architectural (functional) state is
// never corrupted, so a campaign can measure coverage and detection latency
// on a live workload without needing architectural rollback. See DESIGN.md.
#pragma once

#include "common/types.h"
#include "isa/instruction.h"

namespace reese::core {

struct FaultDecision {
  bool flip_p = false;   ///< corrupt the stored P-stream result copy
  bool flip_r = false;   ///< corrupt the R-stream recomputation result
  unsigned bit = 0;      ///< which bit of the 64-bit value to flip
};

/// A result flip the hook ordered for one checked instruction, as the
/// checker stores it until the comparison settles.
struct InjectedFault {
  bool active = false;  ///< a flip was injected
  bool flip_r = false;  ///< the recomputation is flipped, not the stored copy
  unsigned bit = 0;     ///< flipped bit, 0..63
  Cycle cycle = 0;      ///< injection cycle (the detection-latency base)
};

/// Which microarchitectural structure a fault campaign targets. kResult is
/// the classic result-flipping model (an upset in a functional unit's output
/// latch, delivered through on_instruction); every other site names a
/// storage structure struck through the per-cycle on_site_cycle poll.
/// DESIGN.md §16 documents the per-site injection and outcome semantics.
enum class FaultSite : u8 {
  kResult = 0,  ///< instruction-result flips (the legacy injector model)
  kRuu,         ///< an RUU entry's stored result field
  kRQueue,      ///< an R-stream Queue slot — REESE's own checker state
  kLsq,         ///< an LSQ entry's effective-address field
  kPredictor,   ///< a gshare pattern-table counter bit
  kBtb,         ///< a BTB entry's target field
  kDCache,      ///< a D-L1 line (poisoned until consumed or evicted)
  kDTlb,        ///< a data-TLB translation entry (same poison model)
};

inline constexpr usize kFaultSiteCount = 8;

inline const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kResult:    return "result";
    case FaultSite::kRuu:       return "ruu";
    case FaultSite::kRQueue:    return "rqueue";
    case FaultSite::kLsq:       return "lsq";
    case FaultSite::kPredictor: return "predictor";
    case FaultSite::kBtb:       return "btb";
    case FaultSite::kDCache:    return "dcache";
    case FaultSite::kDTlb:      return "dtlb";
  }
  return "?";
}

/// How one site strike ended. Every strike resolves to exactly one outcome:
///   kMasked   — the corrupted state was never architecturally consumed
///               (empty slot, squashed entry, overwritten/evicted line, dead
///               value, or timing-only state like predictor bits);
///   kDetected — a comparator mismatch fired and charged the recovery
///               penalty (including false-positive detections of checker
///               self-faults);
///   kSdc      — the corruption reached architecturally-visible state with
///               no detection: silent data corruption.
enum class FaultOutcome : u8 { kMasked, kDetected, kSdc };

inline const char* fault_outcome_name(FaultOutcome outcome) {
  switch (outcome) {
    case FaultOutcome::kMasked:   return "masked";
    case FaultOutcome::kDetected: return "detected";
    case FaultOutcome::kSdc:      return "sdc";
  }
  return "?";
}

/// One per-cycle injection decision for a component site. `cell` selects the
/// struck slot/line (reduced modulo the structure size by the pipeline),
/// `bit` the flipped bit, and `field` which stored field of a multi-field
/// entry is hit — keeping all randomness in the hook keeps the pipeline
/// deterministic and the hook testable.
struct SiteStrike {
  bool strike = false;
  u64 cell = 0;
  unsigned bit = 0;
  u64 field = 0;
};

class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Called when instruction `seq` leaves the out-of-order window on its
  /// way to commit (REESE: R-queue entry creation; baseline: commit). `pc`
  /// is the instruction's program counter, so the hook can attribute
  /// outcomes to static instructions. Baseline commit and REESE R-queue
  /// creation call this in program order for EVERY instruction (faulted or
  /// not), which lets a hook observe the committed value stream — the
  /// Franklin scheme calls in completion order instead (documented
  /// approximation for stream-order consumers).
  virtual FaultDecision on_instruction(InstSeq seq, Cycle now, Addr pc,
                                       const isa::Instruction& inst) = 0;

  /// The comparator flagged a mismatch for a faulted instruction.
  virtual void on_detected(InstSeq seq, Cycle injected_at,
                           Cycle detected_at) = 0;

  /// A faulted instruction committed without any comparison catching it
  /// (baseline processor, or a non-re-executed instruction in partial mode).
  virtual void on_undetected(InstSeq seq) = 0;

  // ---- Component-site campaign interface (all optional) -------------------
  //
  // A hook that returns a site other than kResult switches the pipeline into
  // component-strike mode: once per cycle it polls on_site_cycle and, on a
  // strike, corrupts the named structure. Every strike is later resolved to
  // exactly one FaultOutcome via on_site_outcome. The default implementations
  // keep legacy result-flipping hooks working unchanged.

  /// Which structure this hook targets. kResult (the default) keeps the
  /// classic on_instruction result-flipping path; anything else enables the
  /// per-cycle site poll.
  virtual FaultSite site() const { return FaultSite::kResult; }

  /// Polled once per cycle (top of Pipeline::cycle) when site() != kResult.
  virtual SiteStrike on_site_cycle(Cycle now) {
    (void)now;
    return {};
  }

  /// A site strike resolved. `pc` attributes the outcome to the static
  /// instruction that owned (or consumed) the corrupted state; it is 0 when
  /// no instruction is attributable (empty slot, evicted line, ...).
  virtual void on_site_outcome(FaultOutcome outcome, Addr pc,
                               Cycle injected_at, Cycle resolved_at) {
    (void)outcome;
    (void)pc;
    (void)injected_at;
    (void)resolved_at;
  }

  /// An R-queue self-fault killed a pending re-execution: the instruction
  /// will commit unchecked. The strike itself still resolves (as masked —
  /// architectural state is untouched); this counter quantifies the silent
  /// coverage loss.
  virtual void on_checker_loss() {}
};

}  // namespace reese::core
