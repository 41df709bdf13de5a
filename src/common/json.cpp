#include "common/json.h"

#include "common/strutil.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace reese {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace reese

namespace reese::json {

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    skip_ws();
    Value root;
    if (!parse_value(&root, 0)) return error_;
    skip_ws();
    if (pos_ != text_.size()) {
      return errorf("json: trailing characters at offset %zu", pos_);
    }
    return root;
  }

 private:
  bool parse_value(Value* out, int depth) {
    if (depth > kMaxDepth) return fail(format("nesting deeper than %d", kMaxDepth));
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out->type = Value::Type::kString;
        return parse_string(&out->string);
      case 't': return parse_literal(out, "true");
      case 'f': return parse_literal(out, "false");
      case 'n': return parse_literal(out, "null");
      default: return parse_number(out);
    }
  }

  bool parse_object(Value* out, int depth) {
    out->type = Value::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      Value member;
      if (!parse_value(&member, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value* out, int depth) {
    out->type = Value::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      Value element;
      if (!parse_value(&element, depth + 1)) return false;
      out->array.push_back(std::move(element));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string* out) {
    if (peek() != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("dangling escape");
      switch (text_[pos_]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          u32 code = 0;
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return fail("bad \\u escape");
            }
            const char h = text_[pos_];
            code = code * 16 +
                   static_cast<u32>(h <= '9' ? h - '0'
                                             : (h | 0x20) - 'a' + 10);
          }
          // UTF-8 encode the BMP code point; surrogate pairs are passed
          // through as two 3-byte sequences (spec inputs are ASCII in
          // practice — names of workloads, models, variants).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail(format("unknown escape '\\%c'", text_[pos_]));
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool parse_literal(Value* out, const char* word) {
    for (const char* c = word; *c != '\0'; ++c, ++pos_) {
      if (peek() != *c) return fail(format("bad literal (expected %s)", word));
    }
    if (word[0] == 't') {
      out->type = Value::Type::kBool;
      out->boolean = true;
    } else if (word[0] == 'f') {
      out->type = Value::Type::kBool;
      out->boolean = false;
    } else {
      out->type = Value::Type::kNull;
    }
    return true;
  }

  bool parse_number(Value* out) {
    const usize start = pos_;
    bool integral = true;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("expected a value");
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      integral = false;
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digits required after decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digits required in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out->type = Value::Type::kNumber;
    out->number = std::strtod(token.c_str(), nullptr);
    if (integral) {
      errno = 0;
      if (token[0] == '-') {
        const i64 value = std::strtoll(token.c_str(), nullptr, 10);
        if (errno != ERANGE) {
          out->is_integer = true;
          out->int_value = value;
        }
      } else {
        const u64 value = std::strtoull(token.c_str(), nullptr, 10);
        if (errno != ERANGE) {
          out->is_integer = true;
          out->uint_value = value;
          if (value <= static_cast<u64>(INT64_MAX)) {
            out->int_value = static_cast<i64>(value);
          }
        }
      }
    }
    return true;
  }

  bool fail(std::string message) {
    error_ = Error{"json: " + std::move(message)};
    return false;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  usize pos_ = 0;
  Error error_;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<Value> parse_json(std::string_view text) {
  return Parser(text).run();
}

void Writer::before_value() {
  if (after_key_) {
    after_key_ = false;
  } else if (!stack_.empty()) {
    Frame& frame = stack_.back();
    if (frame.members++ > 0) {
      *out_ += frame.layout == Layout::kInline ? ", " : ",";
    }
    if (frame.layout == Layout::kBlock) {
      *out_ += '\n';
      out_->append(2 * stack_.size(), ' ');
    }
  }
}

Writer& Writer::begin(char open, bool object, Layout layout) {
  before_value();
  *out_ += open;
  stack_.push_back(Frame{layout, object});
  return *this;
}

Writer& Writer::begin_object(Layout layout) { return begin('{', true, layout); }
Writer& Writer::begin_array(Layout layout) { return begin('[', false, layout); }

Writer& Writer::end() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.layout == Layout::kBlock && frame.members > 0) {
    *out_ += '\n';
    out_->append(2 * stack_.size(), ' ');
  }
  *out_ += frame.object ? '}' : ']';
  return *this;
}

Writer& Writer::key(std::string_view name) {
  after_key_ = false;  // the last member's value may have been hand-written
  value(name);
  *out_ += stack_.back().layout == Layout::kCompact ? ":" : ": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  return raw('"' + json_escape(s) + '"');
}

Writer& Writer::fixed(double v, int decimals) {
  return raw(std::isfinite(v) ? format("%.*f", decimals, v) : "null");
}

Writer& Writer::significant(double v, int digits) {
  return raw(std::isfinite(v) ? format("%.*g", digits, v) : "null");
}

Writer& Writer::raw(std::string_view json) {
  before_value();
  *out_ += json;
  return *this;
}

}  // namespace reese::json
