// Minimal JSON document parser for the simulation service (reesed).
//
// The repo deliberately carries no third-party JSON dependency; reports are
// emitted with printf-style builders (campaign.cpp, diag.cpp), and the tests
// check them with this parser. The service is the first component that must
// *read* JSON — request specs arrive over HTTP — so this adds the smallest
// parser that covers RFC 8259 documents: objects, arrays, strings with the
// standard escapes, numbers, true/false/null. Documents are parsed into a
// tree of Value nodes; object members preserve insertion order.
//
// Numbers keep an exact unsigned/signed integer view when the token is
// integral and in range (seeds are full-width u64; a double would round
// above 2^53), plus the double view for everything else.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace reese::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Exact integer view: valid when `is_integer` (token had no '.'/'e' and
  /// fit). Negative integers set `int_value` (and `uint_value` only when
  /// non-negative).
  bool is_integer = false;
  u64 uint_value = 0;
  i64 int_value = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
};

/// Parse one complete JSON document (trailing garbage is an error).
/// Nesting deeper than 64 levels is rejected (stack safety on untrusted
/// network input).
Result<Value> parse_json(std::string_view text);

}  // namespace reese::json
