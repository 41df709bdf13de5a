// The command-line parser shared by every binary. Each flag is bound to a
// typed destination before parsing and parse() writes straight into it, so
// a binary's options live in plain structs that hold their defaults.
//
//   -name VALUE, --name VALUE, -name=VALUE, --name=VALUE
//       Either prefix works for every flag. A flag with a value always takes
//       the next token, so "-seed -1" is a value, not another flag.
//   -name (bool flag)
//       Means true. It takes the next token only when that is a bool
//       literal (0/1/true/false/yes/no/on/off): "-reese 1" sets the flag,
//       "--vuln prog.srv" keeps prog.srv as an operand.
//   -   A lone dash is an operand (stdin, by convention).
//
// Operands are errors unless the binary calls accept_operands(); so are
// unknown flags, missing values and malformed numbers. Parsing visits every
// token, applying the valid flags, and returns the first error.
#pragma once

#include <concepts>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace reese {

/// Strict whole-token integer in [min, max], base 0, returned as the
/// two's-complement bit pattern; backs parse_number.
Result<u64> parse_integer(std::string_view text, i64 min, u64 max);

/// The number parser behind integer flags and the REESE_* environment
/// variables: the whole token, within T's range, with no sign when T is
/// unsigned.
template <std::integral T>
Result<T> parse_number(std::string_view text) {
  const Result<u64> value =
      parse_integer(text, std::numeric_limits<T>::min(),
                    static_cast<u64>(std::numeric_limits<T>::max()));
  if (!value.ok()) return value.error();
  return static_cast<T>(value.value());
}

/// A positive integer from environment variable `name`. Unset or empty
/// gives `fallback` silently; a value that is not a positive integer
/// ("3e5", "2x", "0") gives `fallback` after a warning on stderr naming the
/// variable (once per variable per process).
u64 env_positive(const char* name, u64 fallback);

class FlagParser {
 public:
  /// Register a flag. `name` is spelled as the binary documents it ("-ruu",
  /// "--jobs"); either prefix matches on the command line. Destinations
  /// must outlive parse().
  void add(std::string_view name, bool* out);
  void add(std::string_view name, double* out);
  /// `*seen` (optional) becomes true when the flag appears, for flags whose
  /// presence means more than their value (--resume-from).
  void add(std::string_view name, std::string* out, bool* seen = nullptr);
  /// Repeatable: every occurrence appends.
  void add(std::string_view name, std::vector<std::string>* out);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  void add(std::string_view name, T* out) {
    add_flag(name, false, [out](const std::string& value) -> Result<bool> {
      Result<T> parsed = parse_number<T>(value);
      if (!parsed.ok()) return parsed.error();
      *out = parsed.value();
      return true;
    });
  }

  /// Let positional arguments (file operands, subcommands) through into
  /// positional(); by default they are errors.
  void accept_operands() { accept_operands_ = true; }

  /// Parse argv[1..argc). Positional arguments collect in positional().
  Result<bool> parse(int argc, const char* const* argv);

  /// Read whitespace-separated flags from a config file ('#' comments).
  /// Flags already given on the command line keep their command-line
  /// value; file positionals append to positional().
  Result<bool> parse_file(const std::string& path);

  /// parse(), printing "<program>: <error>" to stderr on failure. Binaries
  /// exit 2 when this returns false.
  bool parse_or_report(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  using Setter = std::function<Result<bool>(const std::string&)>;
  struct Flag {
    std::string name;     ///< without dashes: the lookup key
    std::string spelled;  ///< as registered, for messages
    bool is_bool = false;
    Setter set;
  };

  void add_flag(std::string_view name, bool is_bool, Setter set);
  Flag* find(std::string_view name);
  Result<bool> parse_tokens(const std::vector<std::string>& tokens,
                            bool from_file);

  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  std::set<std::string> given_;  ///< names set on the command line
  bool accept_operands_ = false;
};

}  // namespace reese
