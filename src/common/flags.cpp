#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include <fstream>
#include <mutex>

#include "common/strutil.h"

namespace reese {

namespace {

/// 1/0 for a bool literal, -1 for anything else.
int bool_literal(std::string_view text) {
  const std::string s = to_lower(text);
  if (s == "1" || s == "true" || s == "yes" || s == "on") return 1;
  if (s == "0" || s == "false" || s == "no" || s == "off") return 0;
  return -1;
}

}  // namespace

Result<u64> parse_integer(std::string_view text, i64 min, u64 max) {
  const std::string copy(text);
  const bool negative = !copy.empty() && copy[0] == '-';
  char* end = nullptr;
  errno = 0;
  const u64 value =
      negative ? static_cast<u64>(std::strtoll(copy.c_str(), &end, 0))
               : std::strtoull(copy.c_str(), &end, 0);
  // strto* skip leading space and stop at garbage; neither is a number.
  if (copy.empty() || std::isspace(static_cast<unsigned char>(copy[0])) ||
      end != copy.c_str() + copy.size()) {
    return errorf("'%s' is not an integer", copy.c_str());
  }
  if (negative && min == 0) {
    return errorf("'%s' is negative; expected an unsigned integer",
                  copy.c_str());
  }
  if (errno == ERANGE || (negative ? static_cast<i64>(value) < min
                                   : value > max)) {
    return errorf("'%s' is out of range", copy.c_str());
  }
  return value;
}

u64 env_positive(const char* name, u64 fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const Result<u64> value = parse_number<u64>(env);
  if (value.ok() && value.value() > 0) return value.value();
  static std::mutex mutex;
  static std::set<std::string> warned;
  const std::lock_guard<std::mutex> lock(mutex);
  if (warned.insert(name).second) {
    std::fprintf(stderr,
                 "warning: %s=\"%s\" is not a positive integer; using the "
                 "default\n",
                 name, env);
  }
  return fallback;
}

void FlagParser::add_flag(std::string_view name, bool is_bool, Setter set) {
  flags_.push_back({std::string(name.substr(name.find_first_not_of('-'))),
                    std::string(name), is_bool, std::move(set)});
}

void FlagParser::add(std::string_view name, bool* out) {
  add_flag(name, true, [out](const std::string& value) -> Result<bool> {
    const int literal = bool_literal(value);
    if (literal < 0) {
      return errorf("'%s' is not a bool (0/1/true/false/yes/no/on/off)",
                    value.c_str());
    }
    *out = literal == 1;
    return true;
  });
}

void FlagParser::add(std::string_view name, double* out) {
  add_flag(name, false, [out](const std::string& value) -> Result<bool> {
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || std::isspace(static_cast<unsigned char>(value[0])) ||
        end != value.c_str() + value.size()) {
      return errorf("'%s' is not a number", value.c_str());
    }
    *out = parsed;
    return true;
  });
}

void FlagParser::add(std::string_view name, std::string* out, bool* seen) {
  add_flag(name, false, [out, seen](const std::string& value) -> Result<bool> {
    *out = value;
    if (seen != nullptr) *seen = true;
    return true;
  });
}

void FlagParser::add(std::string_view name, std::vector<std::string>* out) {
  add_flag(name, false, [out](const std::string& value) -> Result<bool> {
    out->push_back(value);
    return true;
  });
}

FlagParser::Flag* FlagParser::find(std::string_view name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

Result<bool> FlagParser::parse_tokens(const std::vector<std::string>& tokens,
                                      bool from_file) {
  Result<bool> first = true;
  const auto fail = [&first](Error error) {
    if (first.ok()) first = std::move(error);
  };
  for (usize i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.size() < 2 || token[0] != '-') {
      if (!accept_operands_) {
        fail(errorf("unexpected argument '%s'", token.c_str()));
      }
      positional_.push_back(token);
      continue;
    }
    const std::string_view body =
        std::string_view(token).substr(token[1] == '-' ? 2 : 1);
    const usize eq = body.find('=');
    const std::string_view name = body.substr(0, eq);
    Flag* flag = find(name);
    if (flag == nullptr) {
      std::string accepted;
      for (const Flag& known : flags_) accepted += " " + known.spelled;
      fail(errorf("unknown flag %s; accepted:%s",
                  token.substr(0, token.find('=')).c_str(),
                  accepted.c_str()));
      continue;
    }
    std::string value;
    if (eq != std::string_view::npos) {
      value = std::string(body.substr(eq + 1));
    } else if (flag->is_bool) {
      value = "true";
      if (i + 1 < tokens.size() && bool_literal(tokens[i + 1]) >= 0) {
        value = tokens[++i];
      }
    } else if (i + 1 < tokens.size()) {
      value = tokens[++i];
    } else {
      fail(errorf("flag %s needs a value", flag->spelled.c_str()));
      continue;
    }
    // Command-line values win over config-file values.
    if (from_file && given_.count(flag->name) != 0) continue;
    if (!from_file) given_.insert(flag->name);
    if (Result<bool> set = flag->set(value); !set.ok()) {
      fail(errorf("flag %s: %s", flag->spelled.c_str(),
                  set.error().message.c_str()));
    }
  }
  return first;
}

Result<bool> FlagParser::parse(int argc, const char* const* argv) {
  return parse_tokens(std::vector<std::string>(argv + 1, argv + argc), false);
}

Result<bool> FlagParser::parse_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return errorf("cannot open config file '%s'", path.c_str());
  std::vector<std::string> tokens;
  std::string line;
  while (std::getline(file, line)) {
    const usize comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    for (std::string_view token : split_whitespace(line)) {
      tokens.emplace_back(token);
    }
  }
  Result<bool> parsed = parse_tokens(tokens, true);
  if (!parsed.ok()) {
    return errorf("%s: %s", path.c_str(), parsed.error().message.c_str());
  }
  return true;
}

bool FlagParser::parse_or_report(int argc, const char* const* argv) {
  const Result<bool> parsed = parse(argc, argv);
  if (parsed.ok()) return true;
  std::string_view program = argc > 0 ? argv[0] : "";
  program = program.substr(program.find_last_of('/') + 1);
  std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(program.size()),
               program.data(), parsed.error().message.c_str());
  return false;
}

}  // namespace reese
