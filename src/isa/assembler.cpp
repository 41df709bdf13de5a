#include "isa/assembler.h"

#include <cassert>
#include <optional>
#include <string>
#include <vector>

#include "common/bitutil.h"
#include "common/strutil.h"
#include "isa/encoding.h"

namespace reese::isa {
namespace {

// ---------------------------------------------------------------------------
// Lexical pieces
// ---------------------------------------------------------------------------

/// Strip comments ('#', '//', ';') outside of string literals.
std::string_view strip_comment(std::string_view line) {
  bool in_string = false;
  for (usize i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"' && (i == 0 || line[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '#' || c == ';') return line.substr(0, i);
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      return line.substr(0, i);
    }
  }
  return line;
}

/// Split an operand list on commas at depth zero (no parens nesting needed,
/// but keeps "8(sp)" together).
std::vector<std::string_view> split_operands(std::string_view s) {
  std::vector<std::string_view> out;
  usize start = 0;
  for (usize i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ',') {
      const std::string_view piece = trim(s.substr(start, i - start));
      if (!piece.empty()) out.push_back(piece);
      start = i + 1;
    }
  }
  return out;
}

bool valid_label_name(std::string_view s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_' ||
        s[0] == '.')) {
    return false;
  }
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.')) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Parsed source representation (pass 1 output)
// ---------------------------------------------------------------------------

struct SourceInst {
  std::string mnemonic;
  std::vector<std::string> operands;
  int line = 0;
  Addr addr = 0;       // assigned in pass 1
  usize expansion = 1; // encoded instruction count
};

enum class DataKind { kBytes, kSpace, kAlign, kValueList };

struct DataItem {
  DataKind kind;
  std::vector<u8> bytes;              // kBytes (strings)
  u64 amount = 0;                     // kSpace / kAlign
  unsigned value_size = 0;            // kValueList element size
  std::vector<std::string> values;    // kValueList expressions
  int line = 0;
  Addr addr = 0;
};

struct ParsedSource {
  std::vector<SourceInst> insts;
  std::vector<DataItem> data_items;
  std::map<std::string, Addr> symbols;
};

// ---------------------------------------------------------------------------
// Assembler implementation
// ---------------------------------------------------------------------------

class Assembler {
 public:
  explicit Assembler(const AsmOptions& options) : options_(options) {}

  Result<Program> run(std::string_view source) {
    if (auto r = pass1(source); !r.ok()) return r.error();
    if (auto r = pass2(); !r.ok()) return r.error();
    program_.code_base = options_.code_base;
    program_.data_base = options_.data_base;
    program_.symbols = parsed_.symbols;
    auto main_it = parsed_.symbols.find("main");
    program_.entry =
        main_it != parsed_.symbols.end() ? main_it->second : options_.code_base;
    return std::move(program_);
  }

 private:
  Error at(int line, std::string message) const {
    return Error{std::move(message), line};
  }

  /// Number of encoded instructions a (possibly pseudo) source instruction
  /// expands to. `li` needs its literal operand to decide.
  Result<usize> expansion_size(const SourceInst& inst) {
    const std::string& m = inst.mnemonic;
    if (m == "la") return usize{2};
    if (m == "li") {
      if (inst.operands.size() != 2) {
        return at(inst.line, "li needs 2 operands");
      }
      i64 value = 0;
      if (!parse_int(inst.operands[1], &value)) {
        // `li rd, label` is allowed and takes the la expansion.
        if (valid_label_name(inst.operands[1])) return usize{2};
        return at(inst.line, "li: bad immediate '" + inst.operands[1] + "'");
      }
      return li_sequence(0, value).size();
    }
    return usize{1};
  }

  /// Materialize a 64-bit constant into `rd`. Returns the instruction list.
  static std::vector<Instruction> li_sequence(u8 rd, i64 value) {
    std::vector<Instruction> seq;
    if (fits_signed(value, kImm14Bits)) {
      seq.push_back({Opcode::kAddi, rd, kZeroReg, 0, value});
      return seq;
    }
    // Try lui(+addi): covers all values representable as
    // sext19(hi) << 14 + sext14(lo), i.e. signed 33-bit values.
    const i64 lo = sign_extend(static_cast<u64>(value), kImm14Bits);
    // In u64: value - lo leaves the i64 range near INT64_MAX.
    const i64 hi = static_cast<i64>(static_cast<u64>(value) - lo) >> 14;
    if (fits_signed(hi, kImm19Bits)) {
      seq.push_back({Opcode::kLui, rd, 0, 0, hi});
      if (lo != 0) seq.push_back({Opcode::kAddi, rd, rd, 0, lo});
      return seq;
    }
    // General case: build from 13-bit unsigned chunks, top-down, to avoid
    // sign-extension carries entirely: value = ((((c4<<13|c3)<<13)|..)<<13)|c0
    // with a possible final negation handled via the signed top chunk.
    const u64 uvalue = static_cast<u64>(value);
    // 64 = 13*4 + 12 -> top chunk is bits [63:52] (12 bits, signed via addi).
    const i64 top = sign_extend(uvalue >> 52, 12);
    seq.push_back({Opcode::kAddi, rd, kZeroReg, 0, top});
    for (int chunk_index = 3; chunk_index >= 0; --chunk_index) {
      const u64 chunk = (uvalue >> (13 * chunk_index)) & 0x1FFF;
      seq.push_back({Opcode::kSlli, rd, rd, 0, 13});
      if (chunk != 0) {
        seq.push_back(
            {Opcode::kAddi, rd, rd, 0, static_cast<i64>(chunk)});
      }
    }
    return seq;
  }

  Result<bool> pass1(std::string_view source) {
    const std::vector<std::string_view> lines = split(source, '\n');
    bool in_text = true;
    usize inst_count = 0;  // encoded instructions so far
    u64 data_offset = 0;

    for (usize line_index = 0; line_index < lines.size(); ++line_index) {
      const int line_no = static_cast<int>(line_index) + 1;
      std::string_view line = trim(strip_comment(lines[line_index]));

      // Labels (possibly several) at the start of the line.
      while (true) {
        const usize colon = line.find(':');
        if (colon == std::string_view::npos) break;
        const std::string_view candidate = trim(line.substr(0, colon));
        if (!valid_label_name(candidate)) break;
        // Don't treat "8(sp):" etc. — valid_label_name guards that.
        const std::string name(candidate);
        if (parsed_.symbols.count(name) != 0) {
          return at(line_no, "duplicate label '" + name + "'");
        }
        parsed_.symbols[name] = in_text
                                    ? options_.code_base + 4 * inst_count
                                    : options_.data_base + data_offset;
        line = trim(line.substr(colon + 1));
      }
      if (line.empty()) continue;

      if (line[0] == '.') {
        // Directive.
        const usize space = line.find_first_of(" \t");
        const std::string directive(
            line.substr(0, space == std::string_view::npos ? line.size()
                                                           : space));
        const std::string_view rest =
            space == std::string_view::npos ? std::string_view{}
                                            : trim(line.substr(space));
        if (directive == ".text") {
          in_text = true;
          continue;
        }
        if (directive == ".data") {
          in_text = false;
          continue;
        }
        if (directive == ".global" || directive == ".globl") continue;
        if (in_text) {
          return at(line_no, "directive " + directive + " not valid in .text");
        }
        DataItem item;
        item.line = line_no;
        item.addr = options_.data_base + data_offset;
        if (directive == ".byte" || directive == ".half" ||
            directive == ".word" || directive == ".dword") {
          item.kind = DataKind::kValueList;
          item.value_size = directive == ".byte"   ? 1
                            : directive == ".half" ? 2
                            : directive == ".word" ? 4
                                                   : 8;
          for (std::string_view v : split_operands(rest)) {
            item.values.emplace_back(v);
          }
          if (item.values.empty()) {
            return at(line_no, directive + " needs at least one value");
          }
          data_offset += item.value_size * item.values.size();
        } else if (directive == ".space") {
          i64 n = 0;
          if (!parse_int(rest, &n) || n < 0) {
            return at(line_no, ".space: bad size");
          }
          item.kind = DataKind::kSpace;
          item.amount = static_cast<u64>(n);
          data_offset += item.amount;
        } else if (directive == ".align") {
          i64 n = 0;
          if (!parse_int(rest, &n) || n <= 0 || !is_pow2(static_cast<u64>(n))) {
            return at(line_no, ".align: need a power-of-two argument");
          }
          item.kind = DataKind::kAlign;
          item.amount = static_cast<u64>(n);
          const u64 aligned =
              (data_offset + item.amount - 1) & ~(item.amount - 1);
          item.bytes.resize(aligned - data_offset);  // reuse as pad size
          data_offset = aligned;
        } else if (directive == ".asciiz" || directive == ".ascii") {
          item.kind = DataKind::kBytes;
          std::string decoded;
          if (!decode_string(rest, &decoded)) {
            return at(line_no, directive + ": bad string literal");
          }
          item.bytes.assign(decoded.begin(), decoded.end());
          if (directive == ".asciiz") item.bytes.push_back(0);
          data_offset += item.bytes.size();
        } else {
          return at(line_no, "unknown directive " + directive);
        }
        parsed_.data_items.push_back(std::move(item));
        continue;
      }

      // Instruction line.
      if (!in_text) {
        return at(line_no, "instruction outside .text: '" + std::string(line) +
                               "'");
      }
      const usize space = line.find_first_of(" \t");
      SourceInst inst;
      inst.line = line_no;
      inst.mnemonic = to_lower(
          line.substr(0, space == std::string_view::npos ? line.size() : space));
      if (space != std::string_view::npos) {
        for (std::string_view piece : split_operands(trim(line.substr(space)))) {
          inst.operands.emplace_back(piece);
        }
      }
      inst.addr = options_.code_base + 4 * inst_count;
      auto size = expansion_size(inst);
      if (!size.ok()) return size.error();
      inst.expansion = size.value();
      inst_count += inst.expansion;
      parsed_.insts.push_back(std::move(inst));
    }
    return true;
  }

  static bool decode_string(std::string_view s, std::string* out) {
    s = trim(s);
    if (s.size() < 2 || s.front() != '"' || s.back() != '"') return false;
    s = s.substr(1, s.size() - 2);
    for (usize i = 0; i < s.size(); ++i) {
      if (s[i] != '\\') {
        out->push_back(s[i]);
        continue;
      }
      if (++i >= s.size()) return false;
      switch (s[i]) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case '0': out->push_back('\0'); break;
        case '\\': out->push_back('\\'); break;
        case '"': out->push_back('"'); break;
        default: return false;
      }
    }
    return true;
  }

  /// Evaluate `label`, `label+N`, `label-N`, or an integer literal.
  Result<i64> eval_expr(std::string_view expr, int line) const {
    expr = trim(expr);
    i64 literal = 0;
    if (parse_int(expr, &literal)) return literal;

    usize op_pos = std::string_view::npos;
    for (usize i = 1; i < expr.size(); ++i) {
      if (expr[i] == '+' || expr[i] == '-') {
        op_pos = i;
        break;
      }
    }
    std::string_view base = trim(expr.substr(0, op_pos));
    i64 offset = 0;
    if (op_pos != std::string_view::npos) {
      if (!parse_int(expr.substr(op_pos), &offset)) {
        return at(line, "bad expression '" + std::string(expr) + "'");
      }
    }
    auto it = parsed_.symbols.find(std::string(base));
    if (it == parsed_.symbols.end()) {
      return at(line, "unknown symbol '" + std::string(base) + "'");
    }
    return static_cast<i64>(it->second) + offset;
  }

  struct Operands {
    std::vector<std::string>* raw;
    int line;
  };

  Result<u8> reg_operand(const SourceInst& inst, usize index, bool fp) const {
    if (index >= inst.operands.size()) {
      return at(inst.line, inst.mnemonic + ": missing operand");
    }
    const int reg = parse_register(inst.operands[index], fp);
    if (reg < 0) {
      return at(inst.line, inst.mnemonic + ": bad register '" +
                               inst.operands[index] + "'");
    }
    return static_cast<u8>(reg);
  }

  Result<i64> imm_operand(const SourceInst& inst, usize index) const {
    if (index >= inst.operands.size()) {
      return at(inst.line, inst.mnemonic + ": missing immediate");
    }
    return eval_expr(inst.operands[index], inst.line);
  }

  /// Parse "imm(reg)" or "label" (absolute, reg=zero) memory operand.
  struct MemOperand {
    u8 base;
    i64 offset;
  };
  Result<MemOperand> mem_operand(const SourceInst& inst, usize index) const {
    if (index >= inst.operands.size()) {
      return at(inst.line, inst.mnemonic + ": missing memory operand");
    }
    const std::string& s = inst.operands[index];
    const usize open = s.find('(');
    if (open == std::string::npos) {
      auto value = eval_expr(s, inst.line);
      if (!value.ok()) return value.error();
      return MemOperand{kZeroReg, value.value()};
    }
    const usize close = s.find(')', open);
    if (close == std::string::npos) {
      return at(inst.line, "bad memory operand '" + s + "'");
    }
    const int reg = parse_register(trim(std::string_view(s).substr(
                                       open + 1, close - open - 1)),
                                   false);
    if (reg < 0) {
      return at(inst.line, "bad base register in '" + s + "'");
    }
    i64 offset = 0;
    const std::string_view offset_text = trim(std::string_view(s).substr(0, open));
    if (!offset_text.empty()) {
      auto value = eval_expr(offset_text, inst.line);
      if (!value.ok()) return value.error();
      offset = value.value();
    }
    return MemOperand{static_cast<u8>(reg), offset};
  }

  /// Branch/jump target: label or literal absolute address -> instruction
  /// offset relative to `from`.
  Result<i64> branch_offset(const SourceInst& inst, usize index,
                            Addr from) const {
    auto target = imm_operand(inst, index);
    if (!target.ok()) return target.error();
    const i64 delta = target.value() - static_cast<i64>(from);
    if (delta % 4 != 0) {
      return at(inst.line, "branch target not instruction-aligned");
    }
    return delta / 4;
  }

  void emit(const Instruction& inst) { emitted_.push_back(inst); }

  Result<bool> encode_source_inst(const SourceInst& inst) {
    const std::string& m = inst.mnemonic;
    const usize emitted_before = emitted_.size();

    // --- pseudo-instructions -------------------------------------------
    if (m == "li") {
      auto rd = reg_operand(inst, 0, false);
      if (!rd.ok()) return rd.error();
      i64 value = 0;
      if (parse_int(inst.operands[1], &value)) {
        for (Instruction& i : li_sequence(rd.value(), value)) emit(i);
      } else {
        auto addr = imm_operand(inst, 1);
        if (!addr.ok()) return addr.error();
        emit_la(rd.value(), addr.value());
      }
    } else if (m == "la") {
      auto rd = reg_operand(inst, 0, false);
      if (!rd.ok()) return rd.error();
      auto addr = imm_operand(inst, 1);
      if (!addr.ok()) return addr.error();
      emit_la(rd.value(), addr.value());
    } else if (m == "mv") {
      auto rd = reg_operand(inst, 0, false);
      auto rs = reg_operand(inst, 1, false);
      if (!rd.ok()) return rd.error();
      if (!rs.ok()) return rs.error();
      emit({Opcode::kAddi, rd.value(), rs.value(), 0, 0});
    } else if (m == "not") {
      auto rd = reg_operand(inst, 0, false);
      auto rs = reg_operand(inst, 1, false);
      if (!rd.ok()) return rd.error();
      if (!rs.ok()) return rs.error();
      emit({Opcode::kXori, rd.value(), rs.value(), 0, -1});
    } else if (m == "neg") {
      auto rd = reg_operand(inst, 0, false);
      auto rs = reg_operand(inst, 1, false);
      if (!rd.ok()) return rd.error();
      if (!rs.ok()) return rs.error();
      emit({Opcode::kSub, rd.value(), kZeroReg, rs.value(), 0});
    } else if (m == "seqz") {
      auto rd = reg_operand(inst, 0, false);
      auto rs = reg_operand(inst, 1, false);
      if (!rd.ok()) return rd.error();
      if (!rs.ok()) return rs.error();
      emit({Opcode::kSltiu, rd.value(), rs.value(), 0, 1});
    } else if (m == "snez") {
      auto rd = reg_operand(inst, 0, false);
      auto rs = reg_operand(inst, 1, false);
      if (!rd.ok()) return rd.error();
      if (!rs.ok()) return rs.error();
      emit({Opcode::kSltu, rd.value(), kZeroReg, rs.value(), 0});
    } else if (m == "subi") {
      auto rd = reg_operand(inst, 0, false);
      auto rs = reg_operand(inst, 1, false);
      auto imm = imm_operand(inst, 2);
      if (!rd.ok()) return rd.error();
      if (!rs.ok()) return rs.error();
      if (!imm.ok()) return imm.error();
      emit({Opcode::kAddi, rd.value(), rs.value(), 0, -imm.value()});
    } else if (m == "j") {
      auto offset = branch_offset(inst, 0, inst.addr);
      if (!offset.ok()) return offset.error();
      emit({Opcode::kJal, kZeroReg, 0, 0, offset.value()});
    } else if (m == "jr") {
      auto rs = reg_operand(inst, 0, false);
      if (!rs.ok()) return rs.error();
      emit({Opcode::kJalr, kZeroReg, rs.value(), 0, 0});
    } else if (m == "call") {
      auto offset = branch_offset(inst, 0, inst.addr);
      if (!offset.ok()) return offset.error();
      emit({Opcode::kJal, kRaReg, 0, 0, offset.value()});
    } else if (m == "ret") {
      emit({Opcode::kJalr, kZeroReg, kRaReg, 0, 0});
    } else if (m == "beqz" || m == "bnez" || m == "bltz" || m == "bgez" ||
               m == "blez" || m == "bgtz") {
      auto rs = reg_operand(inst, 0, false);
      if (!rs.ok()) return rs.error();
      auto offset = branch_offset(inst, 1, inst.addr);
      if (!offset.ok()) return offset.error();
      Instruction out;
      out.imm = offset.value();
      if (m == "beqz") out = {Opcode::kBeq, 0, rs.value(), kZeroReg, offset.value()};
      else if (m == "bnez") out = {Opcode::kBne, 0, rs.value(), kZeroReg, offset.value()};
      else if (m == "bltz") out = {Opcode::kBlt, 0, rs.value(), kZeroReg, offset.value()};
      else if (m == "bgez") out = {Opcode::kBge, 0, rs.value(), kZeroReg, offset.value()};
      else if (m == "blez") out = {Opcode::kBge, 0, kZeroReg, rs.value(), offset.value()};
      else out = {Opcode::kBlt, 0, kZeroReg, rs.value(), offset.value()};
      emit(out);
    } else if (m == "ble" || m == "bgt" || m == "bleu" || m == "bgtu") {
      auto rs1 = reg_operand(inst, 0, false);
      auto rs2 = reg_operand(inst, 1, false);
      if (!rs1.ok()) return rs1.error();
      if (!rs2.ok()) return rs2.error();
      auto offset = branch_offset(inst, 2, inst.addr);
      if (!offset.ok()) return offset.error();
      // a<=b == b>=a ; a>b == b<a — swap operands.
      Opcode op = (m == "ble")    ? Opcode::kBge
                  : (m == "bgt")  ? Opcode::kBlt
                  : (m == "bleu") ? Opcode::kBgeu
                                  : Opcode::kBltu;
      emit({op, 0, rs2.value(), rs1.value(), offset.value()});
    } else {
      // --- real opcodes -------------------------------------------------
      const Opcode op = opcode_from_mnemonic(m);
      if (op == Opcode::kCount) {
        return at(inst.line, "unknown mnemonic '" + m + "'");
      }
      auto encoded = encode_real(inst, op);
      if (!encoded.ok()) return encoded.error();
    }

    if (emitted_.size() - emitted_before != inst.expansion) {
      // Pad with NOPs if a pseudo expanded shorter than pass 1 reserved
      // (e.g. lui with zero low part). Never longer — that would corrupt
      // label addresses.
      if (emitted_.size() - emitted_before > inst.expansion) {
        return at(inst.line, "internal: pseudo expansion grew between passes");
      }
      while (emitted_.size() - emitted_before < inst.expansion) {
        emit({Opcode::kNop, 0, 0, 0, 0});
      }
    }
    return true;
  }

  void emit_la(u8 rd, i64 addr) {
    const i64 lo = sign_extend(static_cast<u64>(addr), kImm14Bits);
    const i64 hi = (addr - lo) >> 14;
    assert(fits_signed(hi, kImm19Bits) && "address out of la range");
    emit({Opcode::kLui, rd, 0, 0, hi});
    emit({Opcode::kAddi, rd, rd, 0, lo});
  }

  Result<bool> encode_real(const SourceInst& inst, Opcode op) {
    const OpInfo& info = op_info(op);
    Instruction out;
    out.op = op;
    switch (info.format) {
      case Format::kR: {
        auto rd = reg_operand(inst, 0, info.is_fp_rd);
        if (!rd.ok()) return rd.error();
        auto rs1 = reg_operand(inst, 1, info.is_fp_rs1);
        if (!rs1.ok()) return rs1.error();
        out.rd = rd.value();
        out.rs1 = rs1.value();
        if (info.reads_rs2) {
          auto rs2 = reg_operand(inst, 2, info.is_fp_rs2);
          if (!rs2.ok()) return rs2.error();
          out.rs2 = rs2.value();
        }
        break;
      }
      case Format::kI: {
        auto rd = reg_operand(inst, 0, false);
        auto rs1 = reg_operand(inst, 1, false);
        auto imm = imm_operand(inst, 2);
        if (!rd.ok()) return rd.error();
        if (!rs1.ok()) return rs1.error();
        if (!imm.ok()) return imm.error();
        out.rd = rd.value();
        out.rs1 = rs1.value();
        out.imm = imm.value();
        break;
      }
      case Format::kU: {
        auto rd = reg_operand(inst, 0, false);
        auto imm = imm_operand(inst, 1);
        if (!rd.ok()) return rd.error();
        if (!imm.ok()) return imm.error();
        out.rd = rd.value();
        out.imm = imm.value();
        break;
      }
      case Format::kL: {
        auto rd = reg_operand(inst, 0, info.is_fp_rd);
        if (!rd.ok()) return rd.error();
        auto mem = mem_operand(inst, 1);
        if (!mem.ok()) return mem.error();
        out.rd = rd.value();
        out.rs1 = mem.value().base;
        out.imm = mem.value().offset;
        break;
      }
      case Format::kS: {
        auto rs2 = reg_operand(inst, 0, info.is_fp_rs2);
        if (!rs2.ok()) return rs2.error();
        auto mem = mem_operand(inst, 1);
        if (!mem.ok()) return mem.error();
        out.rs2 = rs2.value();
        out.rs1 = mem.value().base;
        out.imm = mem.value().offset;
        break;
      }
      case Format::kB: {
        auto rs1 = reg_operand(inst, 0, false);
        auto rs2 = reg_operand(inst, 1, false);
        if (!rs1.ok()) return rs1.error();
        if (!rs2.ok()) return rs2.error();
        auto offset = branch_offset(inst, 2, inst.addr);
        if (!offset.ok()) return offset.error();
        out.rs1 = rs1.value();
        out.rs2 = rs2.value();
        out.imm = offset.value();
        break;
      }
      case Format::kJ: {
        auto rd = reg_operand(inst, 0, false);
        if (!rd.ok()) return rd.error();
        auto offset = branch_offset(inst, 1, inst.addr);
        if (!offset.ok()) return offset.error();
        out.rd = rd.value();
        out.imm = offset.value();
        break;
      }
      case Format::kJr: {
        auto rd = reg_operand(inst, 0, false);
        auto rs1 = reg_operand(inst, 1, false);
        if (!rd.ok()) return rd.error();
        if (!rs1.ok()) return rs1.error();
        out.rd = rd.value();
        out.rs1 = rs1.value();
        if (inst.operands.size() > 2) {
          auto imm = imm_operand(inst, 2);
          if (!imm.ok()) return imm.error();
          out.imm = imm.value();
        }
        break;
      }
      case Format::kO: {
        auto rs1 = reg_operand(inst, 0, false);
        if (!rs1.ok()) return rs1.error();
        out.rs1 = rs1.value();
        break;
      }
      case Format::kN:
        break;
    }
    emit(out);
    return true;
  }

  Result<bool> pass2() {
    for (const SourceInst& inst : parsed_.insts) {
      if (auto r = encode_source_inst(inst); !r.ok()) return r.error();
    }
    // Encode to words (also validates immediate ranges).
    program_.code = emitted_;
    program_.words.reserve(emitted_.size());
    for (usize i = 0; i < emitted_.size(); ++i) {
      auto word = encode(emitted_[i]);
      if (!word.ok()) {
        Error e = word.error();
        e.message = "at instruction " + std::to_string(i) + " (" +
                    disassemble(emitted_[i]) + "): " + e.message;
        return e;
      }
      program_.words.push_back(word.value());
    }

    // Emit data image.
    for (const DataItem& item : parsed_.data_items) {
      const u64 offset = item.addr - options_.data_base;
      switch (item.kind) {
        case DataKind::kBytes:
          grow_data(offset + item.bytes.size());
          std::copy(item.bytes.begin(), item.bytes.end(),
                    program_.data.begin() + static_cast<isize_t>(offset));
          break;
        case DataKind::kSpace:
          grow_data(offset + item.amount);
          break;
        case DataKind::kAlign:
          grow_data(offset + item.bytes.size());
          break;
        case DataKind::kValueList: {
          grow_data(offset + item.value_size * item.values.size());
          u64 cursor = offset;
          for (const std::string& expr : item.values) {
            auto value = eval_expr(expr, item.line);
            if (!value.ok()) return value.error();
            const u64 bits = static_cast<u64>(value.value());
            for (unsigned b = 0; b < item.value_size; ++b) {
              program_.data[cursor + b] = static_cast<u8>(bits >> (8 * b));
            }
            cursor += item.value_size;
          }
          break;
        }
      }
    }
    return true;
  }

  using isize_t = std::vector<u8>::difference_type;

  void grow_data(u64 size) {
    if (program_.data.size() < size) program_.data.resize(size, 0);
  }

  AsmOptions options_;
  ParsedSource parsed_;
  std::vector<Instruction> emitted_;
  Program program_;
};

}  // namespace

Result<Program> assemble(std::string_view source, const AsmOptions& options) {
  Assembler assembler(options);
  return assembler.run(source);
}

}  // namespace reese::isa
