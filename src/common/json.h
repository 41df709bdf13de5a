// JSON for the simulator, with no third-party dependency. parse_json reads
// RFC 8259 documents arriving over HTTP (reesed request specs) into a tree
// of Value nodes; object members keep insertion order, and integers keep an
// exact u64/i64 view (seeds are full-width; a double rounds above 2^53).
// Writer produces every JSON document the simulator, tools and benches
// write (DESIGN.md §19).
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace reese {

/// Escape a string for embedding in a JSON string literal (no surrounding
/// quotes); bytes below 0x20 become escapes, UTF-8 passes through.
std::string json_escape(std::string_view s);

}  // namespace reese

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

/// How a container lays out its members; chosen when it is opened.
enum class Layout : u8 {
  kBlock,    ///< one member per line, two spaces per level; empty = [] / {}
  kInline,   ///< ", " and ": " on one line
  kCompact,  ///< "," and ":" (Chrome trace events)
};

/// Streaming writer appending to a caller-owned string. Calls chain
/// (`w.key("seed").value(seed)`); the caller pairs begin/end and names
/// every object member with key(). Bytes go straight to the string, so a
/// caller may append its own text between calls where a layout needs it.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  Writer& begin_object(Layout layout = Layout::kBlock);
  Writer& begin_array(Layout layout = Layout::kBlock);
  Writer& end();  ///< close the innermost open container
  Writer& key(std::string_view name);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Writer& value(T v) {  // any other integer type, exact
    return raw(std::to_string(v));
  }
  /// `v` with `decimals` digits after the point (1.500000 for 6).
  Writer& fixed(double v, int decimals);
  /// `v` with at most `digits` significant digits (0.01, 300, 1e-05 for 6;
  /// 17 round-trip any double). Both write a non-finite `v` as null.
  Writer& significant(double v, int digits);
  /// A value another Writer already rendered (log::Field payloads, fleet
  /// timeline slice args).
  Writer& raw(std::string_view json);

 private:
  struct Frame {
    Layout layout;
    bool object;
    usize members = 0;
  };

  Writer& begin(char open, bool object, Layout layout);
  void before_value();  ///< separator and indentation before a value

  std::string* out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

}  // namespace reese::json
