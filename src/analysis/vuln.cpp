#include "analysis/vuln.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "analysis/const_lattice.h"
#include "analysis/dataflow.h"
#include "common/json.h"
#include "common/strutil.h"
#include "isa/instruction.h"

namespace reese::analysis {
namespace {

// --- loop nesting depth -----------------------------------------------------

/// Iterative Tarjan SCC restricted to `member` blocks; edges leaving the
/// member set are ignored. Writes scc ids for members into `scc_of` and
/// returns the scc count.
u32 subgraph_sccs(const std::vector<u32>& nodes,
                  const std::vector<std::vector<u32>>& adj,
                  const std::vector<char>& member, std::vector<u32>* scc_of) {
  constexpr u32 kUnvisited = ~u32{0};
  const usize n = adj.size();
  std::vector<u32> index(n, kUnvisited), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<u32> stack;
  u32 next_index = 0, sccs = 0;

  struct Frame {
    u32 block;
    usize next_succ;
  };
  for (u32 root : nodes) {
    if (index[root] != kUnvisited) continue;
    std::vector<Frame> frames = {{root, 0}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const u32 b = frame.block;
      if (frame.next_succ < adj[b].size()) {
        const u32 succ = adj[b][frame.next_succ++];
        if (!member[succ]) continue;
        if (index[succ] == kUnvisited) {
          index[succ] = lowlink[succ] = next_index++;
          stack.push_back(succ);
          on_stack[succ] = true;
          frames.push_back({succ, 0});
        } else if (on_stack[succ]) {
          lowlink[b] = std::min(lowlink[b], index[succ]);
        }
      } else {
        if (lowlink[b] == index[b]) {
          u32 m;
          do {
            m = stack.back();
            stack.pop_back();
            on_stack[m] = false;
            (*scc_of)[m] = sccs;
          } while (m != b);
          ++sccs;
        }
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().block] =
              std::min(lowlink[frames.back().block], lowlink[b]);
        }
      }
    }
  }
  return sccs;
}

bool has_edge(const std::vector<std::vector<u32>>& adj, u32 from, u32 to) {
  return std::find(adj[from].begin(), adj[from].end(), to) != adj[from].end();
}

}  // namespace

std::vector<u32> loop_depths(const Cfg& cfg) {
  const usize n = cfg.block_count();
  std::vector<u32> depth(n, 0);
  if (n == 0) return depth;
  const std::vector<bool> reach = cfg.reachable();

  // Mutable adjacency over the reachable subgraph; back edges get deleted
  // as loops are peeled, so each group is strictly simpler than its parent.
  std::vector<std::vector<u32>> adj(n);
  std::vector<u32> top_nodes;
  for (const BasicBlock& b : cfg.blocks()) {
    if (!reach[b.index]) continue;
    top_nodes.push_back(b.index);
    for (u32 s : b.succs) {
      if (reach[s]) adj[b.index].push_back(s);
    }
  }

  std::vector<std::vector<u32>> work;
  work.push_back(std::move(top_nodes));
  // Every pushed group removed >= 1 edge, so rounds are bounded by the edge
  // count; the guard is a backstop only.
  usize guard = 4 * n + 16;
  while (!work.empty() && guard-- > 0) {
    const std::vector<u32> nodes = std::move(work.back());
    work.pop_back();

    std::vector<char> member(n, 0);
    for (u32 v : nodes) member[v] = 1;
    std::vector<u32> scc_of(n, 0);
    const u32 count = subgraph_sccs(nodes, adj, member, &scc_of);

    std::vector<std::vector<u32>> groups(count);
    for (u32 v : nodes) groups[scc_of[v]].push_back(v);
    for (std::vector<u32>& g : groups) {
      const bool self_loop = g.size() == 1 && has_edge(adj, g[0], g[0]);
      if (g.size() < 2 && !self_loop) continue;  // not a loop
      for (u32 v : g) ++depth[v];

      // Loop header: the entry block if it is a member, else the member
      // with a predecessor outside the group (smallest pc on ties).
      std::vector<char> in_group(n, 0);
      for (u32 v : g) in_group[v] = 1;
      u32 header = g[0];
      bool found = false;
      std::sort(g.begin(), g.end());
      for (u32 v : g) {
        if (v == cfg.entry_block()) {
          header = v;
          found = true;
          break;
        }
        if (found) continue;
        for (u32 p : cfg.block(v).preds) {
          if (reach[p] && !in_group[p]) {
            header = v;
            found = true;
            break;
          }
        }
        if (found) break;
      }
      // Peel the loop: drop its back edges (edges into the header from
      // inside the group) and decompose the body for nested loops.
      for (u32 v : g) {
        std::erase(adj[v], header);
      }
      if (g.size() > 1) work.push_back(std::move(g));
    }
  }
  return depth;
}

double loop_frequency(u32 depth) {
  return std::pow(10.0, static_cast<double>(std::min(depth, kLoopDepthCap)));
}

// --- liveness-window interval analysis --------------------------------------

WindowInterval WindowInterval::hull(WindowInterval a, WindowInterval b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

namespace {

struct WindowState {
  std::array<WindowInterval, isa::kFlatRegCount> regs;

  bool operator==(const WindowState&) const = default;
};

u16 bump(u16 x) {
  return x == 0 ? u16{0} : std::min<u16>(static_cast<u16>(x + 1), kWindowCap);
}

/// Backward transfer of one instruction over the window state: `s` holds
/// per-register distances (from this point) to the last future read before
/// redefinition; the step rewrites it to hold distances from just before
/// `inst`. Applied endpoint-wise — every per-path distance map below is
/// monotone, so interval endpoints transform exactly.
void window_step(const isa::Instruction& inst, WindowState* s) {
  if (is_opaque_call(inst)) {
    // The unknown callee body runs between this call and its fall-through
    // successor and may read any register early.
    for (WindowInterval& w : s->regs) {
      w = WindowInterval::hull(w, WindowInterval::of(1, kUnknownWindow));
    }
  }
  const isa::DefUse du = isa::def_use(inst);
  auto is_used = [&](u8 flat) {
    for (u8 u = 0; u < du.use_count; ++u) {
      if (du.uses[u].flat() == flat) return true;
    }
    return false;
  };
  const bool has_def = du.def_count > 0;
  const u8 def_flat = has_def ? du.defs[0].flat() : 0;
  for (usize r = 0; r < isa::kFlatRegCount; ++r) {
    WindowInterval& w = s->regs[r];
    if (has_def && r == def_flat) {
      // The incoming value dies here; its last read is this instruction
      // itself (distance 1) when the def also reads it, else it is dead.
      const u16 d = is_used(def_flat) ? 1 : 0;
      w = WindowInterval::of(d, d);
    } else if (is_used(static_cast<u8>(r))) {
      if (w.empty()) continue;  // no path info yet; wait for it
      // Read here at distance 1, and possibly again later.
      w = WindowInterval::of(w.lo > 0 ? bump(w.lo) : 1,
                             w.hi > 0 ? bump(w.hi) : 1);
    } else if (!w.empty()) {
      // One instruction farther from the (unchanged) last read.
      w = WindowInterval::of(bump(w.lo), bump(w.hi));
    }
  }
}

struct WindowProblem {
  using State = WindowState;
  const Cfg* cfg;

  State top() const { return {}; }  // all empty (merge identity)
  State boundary(const BasicBlock& block) const {
    State s;
    // After HALT (or falling off the end) nothing is ever read again; an
    // unknown continuation may read anything within the assumed horizon.
    if (block.has_indirect || block.has_wild_edge) {
      s.regs.fill(WindowInterval::of(0, kUnknownWindow));
    } else {
      s.regs.fill(WindowInterval::of(0, 0));
    }
    return s;
  }
  State merge(const State& a, const State& b) const {
    State s;
    for (usize r = 0; r < isa::kFlatRegCount; ++r) {
      s.regs[r] = WindowInterval::hull(a.regs[r], b.regs[r]);
    }
    return s;
  }
  /// `s` is the window state AFTER the block; returns the state before it.
  State transfer(const BasicBlock& block, State s) const {
    for (usize i = block.last + 1; i-- > block.first;) {
      window_step(cfg->inst(i), &s);
    }
    return s;
  }
};

// --- demanded-bits (masking) analysis ---------------------------------------

struct DemandState {
  std::array<u64, isa::kFlatRegCount> regs{};

  bool operator==(const DemandState&) const = default;
};

/// Statically-known integer operand values at one instruction, from the
/// shared constant lattice; used to sharpen AND/OR masks and shifts.
struct OperandConsts {
  bool rs1_known = false;
  bool rs2_known = false;
  u64 rs1 = 0;
  u64 rs2 = 0;
};

std::vector<OperandConsts> operand_consts(const Cfg& cfg) {
  std::vector<OperandConsts> oc(cfg.program().code.size());
  const ConstProblem problem{&cfg};
  const auto in = solve_dataflow(cfg, Direction::kForward, problem);
  const std::vector<bool> reach = cfg.reachable();
  for (const BasicBlock& block : cfg.blocks()) {
    if (!reach[block.index]) continue;
    ConstState state = in[block.index];
    for (usize i = block.first; i <= block.last; ++i) {
      const isa::Instruction& inst = cfg.inst(i);
      const isa::OpInfo& info = inst.info();
      auto capture = [&](u8 index, bool fp, bool* known, u64* value) {
        if (fp) return;
        if (index == isa::kZeroReg) {
          *known = true;
          *value = 0;
        } else if (state.regs[index].kind == ConstVal::kConst) {
          *known = true;
          *value = state.regs[index].value;
        }
      };
      if (info.reads_rs1) {
        capture(inst.rs1, info.is_fp_rs1, &oc[i].rs1_known, &oc[i].rs1);
      }
      if (info.reads_rs2) {
        capture(inst.rs2, info.is_fp_rs2, &oc[i].rs2_known, &oc[i].rs2);
      }
      eval_const(inst, cfg.pc_of(i), &state);
    }
  }
  return oc;
}

/// Smear every set bit downward: bits 0..msb(d) — the carry/borrow cone of
/// addition-like ops.
u64 msb_fill(u64 d) {
  d |= d >> 1;
  d |= d >> 2;
  d |= d >> 4;
  d |= d >> 8;
  d |= d >> 16;
  d |= d >> 32;
  return d;
}

/// Demand mask on the stored value of a store opcode: only the written
/// bytes can ever be observed.
u64 store_value_mask(const isa::OpInfo& info) {
  return info.mem_bytes >= 8 ? ~0ull : (1ull << (8 * info.mem_bytes)) - 1;
}

/// Backward transfer of one instruction over the demanded-bits state.
void demand_step(const isa::Instruction& inst, const OperandConsts& oc,
                 DemandState* s) {
  using isa::Opcode;
  const isa::OpInfo& info = inst.info();
  const isa::DefUse du = isa::def_use(inst);

  u64 d_rd = 0;
  if (du.def_count > 0) {
    const isa::RegRef rd = du.defs[0];
    if (rd.fp || rd.index != isa::kZeroReg) {
      d_rd = s->regs[rd.flat()];
      s->regs[rd.flat()] = 0;
    }
  }

  // Operand demand masks. A pure value producer whose result is dead
  // demands nothing of its operands; otherwise per-op refinement,
  // defaulting to every bit.
  u64 m1 = ~0ull;
  u64 m2 = ~0ull;
  const bool pure =
      info.writes_rd && info.mem_bytes == 0 && !isa::is_control(inst.op);
  if (pure && d_rd == 0) {
    m1 = m2 = 0;
  } else if (pure) {
    constexpr u64 kSign = 1ull << 63;
    switch (inst.op) {
      case Opcode::kAnd:
        m1 = d_rd & (oc.rs2_known ? oc.rs2 : ~0ull);
        m2 = d_rd & (oc.rs1_known ? oc.rs1 : ~0ull);
        break;
      case Opcode::kAndi:
        m1 = d_rd & static_cast<u64>(inst.imm);
        break;
      case Opcode::kOr:
        // Where the other operand is a known 1, the output bit is forced.
        m1 = d_rd & ~(oc.rs2_known ? oc.rs2 : 0ull);
        m2 = d_rd & ~(oc.rs1_known ? oc.rs1 : 0ull);
        break;
      case Opcode::kOri:
        m1 = d_rd & ~static_cast<u64>(inst.imm);
        break;
      case Opcode::kXor:
      case Opcode::kXori:
        m1 = m2 = d_rd;
        break;
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kAddi:
      case Opcode::kMul:
        // Carries/borrows/partial products propagate upward only.
        m1 = m2 = msb_fill(d_rd);
        break;
      case Opcode::kSlli:
        m1 = d_rd >> (inst.imm & 63);
        break;
      case Opcode::kSrli:
        m1 = d_rd << (inst.imm & 63);
        break;
      case Opcode::kSrai: {
        const u32 sh = static_cast<u32>(inst.imm & 63);
        m1 = d_rd << sh;
        if (sh > 0 && (d_rd >> (64 - sh)) != 0) m1 |= kSign;  // sign copies
        break;
      }
      case Opcode::kSll:
      case Opcode::kSrl:
      case Opcode::kSra:
        if (oc.rs2_known) {
          const u32 sh = static_cast<u32>(oc.rs2 & 63);
          if (inst.op == Opcode::kSll) {
            m1 = d_rd >> sh;
          } else {
            m1 = d_rd << sh;
            if (inst.op == Opcode::kSra && sh > 0 &&
                (d_rd >> (64 - sh)) != 0) {
              m1 |= kSign;
            }
          }
        }
        m2 = 0x3f;  // only the low 6 bits select the shift amount
        break;
      case Opcode::kSlt:
      case Opcode::kSltu:
      case Opcode::kSlti:
      case Opcode::kSltiu:
      case Opcode::kFeq:
      case Opcode::kFlt:
      case Opcode::kFle:
        // The result is 0 or 1; operands only matter through bit 0.
        m1 = m2 = (d_rd & 1) != 0 ? ~0ull : 0;
        break;
      default:
        break;  // loads, FP arithmetic, LUI, cvt/mv: every bit matters
    }
  } else if (isa::is_store(inst.op)) {
    m2 = store_value_mask(info);  // address bits (m1) always matter
  }

  auto add = [&](u8 index, bool fp, u64 mask) {
    if (!fp && index == isa::kZeroReg) return;
    s->regs[isa::RegRef{index, fp}.flat()] |= mask;
  };
  if (info.reads_rs1) add(inst.rs1, info.is_fp_rs1, m1);
  if (info.reads_rs2) add(inst.rs2, info.is_fp_rs2, m2);
  if (is_opaque_call(inst)) s->regs.fill(~0ull);  // unknown callee
}

struct DemandProblem {
  using State = DemandState;
  const Cfg* cfg;
  const std::vector<OperandConsts>* consts;

  State top() const { return {}; }  // nothing demanded (merge identity)
  State boundary(const BasicBlock& block) const {
    State s;
    if (block.has_indirect || block.has_wild_edge) s.regs.fill(~0ull);
    return s;
  }
  State merge(const State& a, const State& b) const {
    State s;
    for (usize r = 0; r < isa::kFlatRegCount; ++r) {
      s.regs[r] = a.regs[r] | b.regs[r];
    }
    return s;
  }
  State transfer(const BasicBlock& block, State s) const {
    for (usize i = block.last + 1; i-- > block.first;) {
      demand_step(cfg->inst(i), (*consts)[i], &s);
    }
    return s;
  }
};

}  // namespace

// --- report assembly --------------------------------------------------------

std::string_view mask_class_name(MaskClass mask_class) {
  switch (mask_class) {
    case MaskClass::kDead: return "dead";
    case MaskClass::kPartial: return "partial";
    case MaskClass::kLive: return "live";
  }
  return "?";
}

double InstVuln::demanded_fraction() const {
  return static_cast<double>(std::popcount(demanded)) / 64.0;
}

VulnReport analyze_vulnerability(const Cfg& cfg) {
  const isa::Program& program = cfg.program();
  const usize n = program.code.size();

  VulnReport report;
  report.instructions.resize(n);
  for (usize i = 0; i < n; ++i) {
    InstVuln& rec = report.instructions[i];
    rec.index = i;
    rec.pc = cfg.pc_of(i);
    rec.text = isa::disassemble(program.code[i]);
  }

  if (cfg.block_count() > 0) {
    const std::vector<u32> depths = loop_depths(cfg);
    const std::vector<bool> reach = cfg.reachable();
    const std::vector<OperandConsts> oc = operand_consts(cfg);
    const WindowProblem window_problem{&cfg};
    const auto window_out =
        solve_dataflow(cfg, Direction::kBackward, window_problem);
    const DemandProblem demand_problem{&cfg, &oc};
    const auto demand_out =
        solve_dataflow(cfg, Direction::kBackward, demand_problem);

    for (const BasicBlock& block : cfg.blocks()) {
      if (!reach[block.index]) continue;
      const u32 depth = depths[block.index];
      const double freq = loop_frequency(depth);
      WindowState ws = window_out[block.index];
      DemandState ds = demand_out[block.index];
      for (usize i = block.last + 1; i-- > block.first;) {
        const isa::Instruction& inst = cfg.inst(i);
        const isa::OpInfo& info = inst.info();
        InstVuln& rec = report.instructions[i];
        rec.reachable = true;
        rec.depth = depth;
        rec.freq = freq;
        if (info.writes_rd) {
          const isa::RegRef rd{inst.rd, info.is_fp_rd};
          if (rd.fp || rd.index != isa::kZeroReg) {
            // The produced value's window/demand is the state just after
            // this instruction — the current re-walk state.
            rec.window = ws.regs[rd.flat()];
            rec.demanded = ds.regs[rd.flat()];
          }  // else: x0 write, a deliberate discard — stays dead
        } else if (isa::is_store(inst.op)) {
          // The stored value is consumed by the commit-time cache write.
          rec.window = WindowInterval::of(1, 1);
          rec.demanded = store_value_mask(info);
        } else if (isa::is_cond_branch(inst.op) || inst.op == isa::Opcode::kOut) {
          // Branch outcome / output-hash operand: consumed immediately.
          rec.window = WindowInterval::of(1, 1);
          rec.demanded = ~0ull;
        }
        // else HALT/NOP: nothing produced — stays dead.

        if (!rec.window.empty() && rec.window.hi > 0 && rec.demanded != 0) {
          rec.mask_class = std::popcount(rec.demanded) == 64
                               ? MaskClass::kLive
                               : MaskClass::kPartial;
        }
        rec.ace_score = rec.freq * rec.window.expected();
        rec.score = rec.ace_score * rec.demanded_fraction();

        window_step(inst, &ws);
        demand_step(inst, oc[i], &ds);
      }
    }
  }

  report.ranking.resize(n);
  for (usize i = 0; i < n; ++i) report.ranking[i] = i;
  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [&](usize a, usize b) {
                     const InstVuln& va = report.instructions[a];
                     const InstVuln& vb = report.instructions[b];
                     if (va.score != vb.score) return va.score > vb.score;
                     return va.pc < vb.pc;
                   });
  return report;
}

VulnReport analyze_vulnerability(const isa::Program& program) {
  const Cfg cfg(program);
  return analyze_vulnerability(cfg);
}

std::string VulnReport::table(std::string_view source, usize top) const {
  const usize limit =
      top == 0 ? ranking.size() : std::min(top, ranking.size());
  std::string out = format(
      "srv-vuln: %.*s: %zu instruction(s), showing top %zu by score\n"
      "rank        pc      score  depth  window  class    bits  inst\n",
      static_cast<int>(source.size()), source.data(), instructions.size(),
      limit);
  for (usize r = 0; r < limit; ++r) {
    const InstVuln& v = instructions[ranking[r]];
    const std::string window =
        v.window.empty() ? std::string("-")
                         : format("[%u,%u]", v.window.lo, v.window.hi);
    out += format("%4zu  0x%06llx  %9.3g  %5u  %6s  %-7s  %4d  %s\n", r + 1,
                  static_cast<unsigned long long>(v.pc), v.score, v.depth,
                  window.c_str(),
                  std::string(mask_class_name(v.mask_class)).c_str(),
                  std::popcount(v.demanded), v.text.c_str());
  }
  return out;
}

std::string VulnReport::json(std::string_view source) const {
  std::string out;
  json::Writer w(&out);
  w.begin_object().key("schema").value("reese-avf-v1");
  w.key("kind").value("static");
  w.key("source").value(source);
  w.key("instruction_count").value(instructions.size());
  w.key("instructions").begin_array();
  for (const InstVuln& v : instructions) {
    w.begin_object(json::Layout::kInline);
    w.key("pc").value(v.pc).key("inst").value(v.text);
    w.key("reachable").value(v.reachable).key("depth").value(v.depth);
    w.key("freq").significant(v.freq, 9);
    const bool dead = v.window.empty();
    w.key("window_lo").value(dead ? -1 : static_cast<int>(v.window.lo));
    w.key("window_hi").value(dead ? -1 : static_cast<int>(v.window.hi));
    w.key("window_expected").significant(v.window.expected(), 9);
    w.key("demanded_mask").value(
        format("0x%016llx", static_cast<unsigned long long>(v.demanded)));
    w.key("demanded_bits").value(std::popcount(v.demanded));
    w.key("mask_class").value(mask_class_name(v.mask_class));
    w.key("ace_score").significant(v.ace_score, 9);
    w.key("score").significant(v.score, 9).end();
  }
  w.end();
  w.key("ranking").begin_array(json::Layout::kInline);
  for (usize r : ranking) w.value(instructions[r].pc);
  w.end().end();
  out += '\n';
  return out;
}

}  // namespace reese::analysis
