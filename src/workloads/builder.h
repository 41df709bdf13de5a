// Helpers for generating workload assembly: data-table emission and the
// common program shell (stack setup + outer repeat loop).
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "isa/program.h"

namespace reese::workloads {

/// (label, bytes) per data table: assemble_or_die() copies the bytes into
/// the image at the label instead of assembling them from text.
using DataTables = std::vector<std::pair<std::string, std::vector<u8>>>;

/// "  .align 8\nlabel: .space <8 * n>\n"; the values go to `tables` as
/// little-endian dwords.
std::string dword_table(const std::string& label, std::span<const u64> values,
                        DataTables* tables);

/// "label: .space <n>\n"; the bytes go to `tables`.
std::string byte_table(const std::string& label, std::span<const u8> values,
                       DataTables* tables);

/// Wrap `kernel_label` (a callable routine that OUTs a checksum) in the
/// standard shell:
///
///   main:  set up sp, loop `iterations` times (or forever) calling the
///          kernel, then HALT.
///
/// The shell passes the iteration index (0-based) in a0 so kernels can vary
/// their behaviour across iterations.
std::string program_shell(const std::string& kernel_label, u64 iterations);

/// Assemble `source` and copy each table's bytes over its `.space`
/// reservation, or abort with a diagnostic — workload sources are build-time
/// constants, so a failure is a programming error.
isa::Program assemble_or_die(const std::string& source, const char* name,
                             const DataTables& tables = {});

}  // namespace reese::workloads
