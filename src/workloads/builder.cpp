#include "workloads/builder.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/strutil.h"
#include "isa/assembler.h"

namespace reese::workloads {

std::string dword_table(const std::string& label, std::span<const u64> values,
                        DataTables* tables) {
  std::vector<u8> bytes;
  for (u64 value : values) {
    for (unsigned b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<u8>(value >> (8 * b)));
    }
  }
  return "  .align 8\n" + byte_table(label, bytes, tables);
}

std::string byte_table(const std::string& label, std::span<const u8> values,
                       DataTables* tables) {
  tables->emplace_back(label, std::vector<u8>(values.begin(), values.end()));
  return format("%s: .space %zu\n", label.c_str(), values.size());
}

isa::Program assemble_or_die(const std::string& source, const char* name,
                             const DataTables& tables) {
  auto result = isa::assemble(source);
  if (!result.ok()) {
    std::fprintf(stderr, "workload '%s' failed to assemble: %s\n", name,
                 result.error().to_string().c_str());
    std::abort();
  }
  isa::Program program = std::move(result).value();
  for (const auto& [label, bytes] : tables) {
    const Addr offset = program.symbol(label) - program.data_base;
    assert(offset + bytes.size() <= program.data.size());
    std::copy(bytes.begin(), bytes.end(), program.data.begin() + offset);
  }
  return program;
}

std::string program_shell(const std::string& kernel_label, u64 iterations) {
  std::string out;
  out += "main:\n";
  out += "  li   sp, 0x8000000\n";
  out += "  li   s10, 0\n";  // iteration index
  if (iterations > 0) {
    out += format("  li   s11, %llu\n",
                  static_cast<unsigned long long>(iterations));
  }
  out += "outer_loop:\n";
  out += "  mv   a0, s10\n";
  out += "  call " + kernel_label + "\n";
  out += "  addi s10, s10, 1\n";
  if (iterations > 0) {
    out += "  addi s11, s11, -1\n";
    out += "  bnez s11, outer_loop\n";
    out += "  halt\n";
  } else {
    out += "  j    outer_loop\n";
  }
  return out;
}

}  // namespace reese::workloads
