// Command-line flags for the tools and benches.
//
// `Flags::parse` tokenizes argv: `--name=value`, `--name value`, and
// boolean `--name`.  Space-form is greedy: `--flag word` binds `word` as
// the flag's value, so put positional arguments BEFORE the flags (the
// tools' usage), or use `--flag=true` when a positional must follow a
// boolean.
//
// A command declares each flag it accepts once, in a `FlagTable`: name,
// kind, default, accepted range and one help line.  The table checks
// the tokens, prints the usage, and hands back `Args`, whose typed
// readers accept only the names the table declares.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace alpu::common {

class Flags {
 public:
  /// Tokenize argv.  Always returns a value; what the tokens mean is
  /// for a `FlagTable` to check.
  static std::optional<Flags> parse(int argc, char** argv);

  bool has(const std::string& name) const {
    return values_.find(name) != values_.end();
  }

  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  std::int64_t get_int(const std::string& name, std::int64_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::strtoll(it->second.c_str(),
                                                         nullptr, 10);
  }

  double get_double(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }

  bool get_bool(const std::string& name, bool fallback = false) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second != "false" && it->second != "0";
  }

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  friend struct FlagTable;
  friend class Args;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

inline std::optional<Flags> Flags::parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself a flag;
    // otherwise a boolean `--name`.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";
    }
  }
  return flags;
}

/// What a flag's value is: a bool takes no value (`--name`, or
/// `--name=true|false`), an integer is a whole int64, a real a finite
/// number, a word any text or one of its choices.
enum class FlagKind { kBool, kInt, kReal, kWord };

/// One flag a command accepts.
struct FlagSpec {
  std::string name{};
  FlagKind kind = FlagKind::kBool;
  /// The value when the flag is not given, as it would be typed.  Empty
  /// when the flag applies only when given: `Args::set` then leaves the
  /// code's own default in place, and `help` says what that is.
  std::string fallback{};
  /// Accepted range of an integer or real: [min, max], or [min, max)
  /// when `max_open`.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool max_open = false;
  /// The words a word flag accepts; empty accepts any.
  std::vector<std::string> choices{};
  std::string help{};
};

class Args;

/// The flags one command accepts, and the checks, reads and usage text
/// that follow from them.
struct FlagTable {
  /// What the user types before the flags ("bench_engine", "alpusim
  /// chaos"); it heads every message and the usage.
  std::string command{};
  /// One line under the usage line; may be empty.
  std::string summary{};
  std::vector<FlagSpec> flags{};
  /// Positional arguments the command takes (alpusim's command name).
  std::size_t positionals = 0;

  /// The flag called `name`, or nullptr.
  const FlagSpec* find(std::string_view name) const {
    for (const FlagSpec& f : flags) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  /// The first problem with `tokens` (an unknown name, a value that does
  /// not parse whole, overflows, lies out of range or is not among the
  /// choices, a value given to a bool, one positional too many), or "".
  std::string problem(const Flags& tokens) const;

  /// Check `tokens`.  On a problem, print "<command>: <reason>" and the
  /// usage to stderr and return nullopt: the caller exits 2.
  std::optional<Args> check(const Flags& tokens) const;
  /// check() of argv's tokens.
  std::optional<Args> parse(int argc, char** argv) const;

  /// "usage: <command> [flags]", the summary, then one line per flag.
  std::string usage() const;

  /// Print "<command>: <why>" and the usage to stderr.  Returns 2, the
  /// exit code for a command line the command cannot run.
  int reject(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\n%s", command.c_str(), why.c_str(),
                 usage().c_str());
    return 2;
  }

 private:
  /// "at least 0", "in [0, 1)" and so on, or "" for an unbounded flag.
  static std::string range_text(const FlagSpec& f);
  /// A word flag's choices, "a|b|c".
  static std::string choice_text(const FlagSpec& f);
  /// Why `value` is not a value of `f`, or "".
  static std::string value_problem(const FlagSpec& f, const std::string& value);
};

/// Flags that passed their table's checks.  Every reader names a flag;
/// reading a name the table does not declare, or reading it as the wrong
/// kind, fails an ALPU_ASSERT, so a typo in code fails the first run.
class Args {
 public:
  /// The flag appeared on the command line.
  bool given(std::string_view name) const {
    spec(name);
    return tokens_.values_.count(std::string(name)) != 0;
  }

  bool on(std::string_view name) const {
    const auto it = tokens_.values_.find(spec(name, FlagKind::kBool).name);
    return it != tokens_.values_.end() && it->second == "true";
  }

  /// The integer flag `name` as a T.  The table must bound the flag to
  /// T's range; one that forgets fails this assertion on the first value
  /// outside it, instead of wrapping.
  template <typename T = std::int64_t>
  T integer(std::string_view name) const {
    std::int64_t v = 0;
    const std::string& text = value(name, FlagKind::kInt);
    std::from_chars(text.data(), text.data() + text.size(), v);
    ALPU_ASSERT(std::in_range<T>(v),
                ("--" + std::string(name) + " is outside its field's range")
                    .c_str());
    return static_cast<T>(v);
  }

  double real(std::string_view name) const {
    double v = 0.0;
    const std::string& text = value(name, FlagKind::kReal);
    std::from_chars(text.data(), text.data() + text.size(), v);
    return v;
  }

  const std::string& word(std::string_view name) const {
    return value(name, FlagKind::kWord);
  }

  /// The index of a word flag's value among its choices.
  std::size_t choice(std::string_view name) const {
    const std::vector<std::string>& choices =
        spec(name, FlagKind::kWord).choices;
    const auto it = std::find(choices.begin(), choices.end(), word(name));
    ALPU_ASSERT(it != choices.end(), "choice() of a flag with no choices");
    return static_cast<std::size_t>(it - choices.begin());
  }

  /// If the integer or real flag `name` was given, store its value times
  /// `scale` in `*out` and return true; otherwise leave `*out` alone.  An
  /// integer must fit T after scaling, as integer<T>() asserts.
  template <typename T>
  bool set(std::string_view name, T* out,
           std::type_identity_t<T> scale = 1) const {
    if (!given(name)) return false;
    if (spec(name).kind == FlagKind::kReal) {
      *out = static_cast<T>(real(name)) * scale;
      return true;
    }
    if constexpr (std::is_integral_v<T>) {
      const T v = integer<T>(name);
      ALPU_ASSERT(v <= std::numeric_limits<T>::max() / scale,
                  ("--" + std::string(name) + " overflows its field").c_str());
      *out = v * scale;
    } else {
      *out = static_cast<T>(integer(name)) * scale;
    }
    return true;
  }

  /// `table.reject(why)` for this command.
  int reject(const std::string& why) const { return table_.reject(why); }

 private:
  friend struct FlagTable;
  Args(FlagTable table, Flags tokens)
      : table_(std::move(table)), tokens_(std::move(tokens)) {}

  const FlagSpec& spec(std::string_view name) const {
    const FlagSpec* f = table_.find(name);
    ALPU_ASSERT(f != nullptr, ("--" + std::string(name) + " is not in " +
                               table_.command + "'s flag table")
                                  .c_str());
    return *f;
  }
  const FlagSpec& spec(std::string_view name, FlagKind kind) const {
    const FlagSpec& f = spec(name);
    ALPU_ASSERT(f.kind == kind, ("--" + f.name + " read as the wrong kind")
                                    .c_str());
    return f;
  }
  /// The given value, else the default; a flag with no default must be
  /// read through set().
  const std::string& value(std::string_view name, FlagKind kind) const {
    const FlagSpec& f = spec(name, kind);
    const auto it = tokens_.values_.find(f.name);
    if (it != tokens_.values_.end()) return it->second;
    ALPU_ASSERT(!f.fallback.empty(),
                ("--" + f.name + " has no default; read it with set()")
                    .c_str());
    return f.fallback;
  }

  FlagTable table_;
  Flags tokens_;
};

inline std::string FlagTable::range_text(const FlagSpec& f) {
  const auto num = [](double x) {
    char buf[32];
    // Whole bounds in full (a field's 4294967295, not 4.29497e+09).
    std::snprintf(buf, sizeof(buf),
                  x == std::floor(x) && std::fabs(x) < 1e15 ? "%.0f" : "%g",
                  x);
    return std::string(buf);
  };
  if (std::isinf(f.min) && std::isinf(f.max)) return "";
  if (std::isinf(f.max)) return "at least " + num(f.min);
  return "in [" + num(f.min) + ", " + num(f.max) + (f.max_open ? ")" : "]");
}

inline std::string FlagTable::choice_text(const FlagSpec& f) {
  std::string out;
  for (const std::string& c : f.choices) out += (out.empty() ? "" : "|") + c;
  return out;
}

inline std::string FlagTable::value_problem(const FlagSpec& f,
                                            const std::string& value) {
  const std::string flag = "--" + f.name;
  const std::string got = ", got '" + value + "'";
  switch (f.kind) {
    case FlagKind::kBool:
      if (value == "true" || value == "false") return "";
      return flag + " takes no value" + got;
    case FlagKind::kWord: {
      if (f.choices.empty() ||
          std::find(f.choices.begin(), f.choices.end(), value) !=
              f.choices.end()) {
        return "";
      }
      return flag + " must be one of " + choice_text(f) + got;
    }
    case FlagKind::kInt:
    case FlagKind::kReal: {
      const char* const end = value.data() + value.size();
      double x = 0.0;
      std::from_chars_result r{};
      if (f.kind == FlagKind::kInt) {
        std::int64_t i = 0;
        r = std::from_chars(value.data(), end, i);
        x = static_cast<double>(i);
      } else {
        r = std::from_chars(value.data(), end, x);
      }
      if (r.ec == std::errc::result_out_of_range) {
        return flag + " is out of range for its type" + got;
      }
      if (r.ec != std::errc() || r.ptr != end || !std::isfinite(x)) {
        return flag + (f.kind == FlagKind::kInt ? " wants an integer"
                                                : " wants a number") +
               got;
      }
      if (x < f.min || x > f.max || (f.max_open && x >= f.max)) {
        return flag + " must be " + range_text(f) + got;
      }
      return "";
    }
  }
  return "";
}

inline std::string FlagTable::problem(const Flags& tokens) const {
  for (const FlagSpec& f : flags) {
    ALPU_ASSERT(find(f.name) == &f, ("--" + f.name + " declared twice in " +
                                     command + "'s flag table")
                                        .c_str());
    ALPU_ASSERT(f.fallback.empty() || value_problem(f, f.fallback).empty(),
                ("--" + f.name + "'s default fails its own checks").c_str());
  }
  for (const auto& [name, value] : tokens.values_) {
    const FlagSpec* f = find(name);
    if (f == nullptr) return "unknown flag --" + name;
    if (std::string why = value_problem(*f, value); !why.empty()) return why;
  }
  if (tokens.positional_.size() > positionals) {
    return "unexpected argument '" + tokens.positional_[positionals] + "'";
  }
  return "";
}

inline std::optional<Args> FlagTable::check(const Flags& tokens) const {
  if (const std::string why = problem(tokens); !why.empty()) {
    reject(why);
    return std::nullopt;
  }
  return Args(*this, tokens);
}

inline std::optional<Args> FlagTable::parse(int argc, char** argv) const {
  return check(*Flags::parse(argc, argv));
}

inline std::string FlagTable::usage() const {
  constexpr std::size_t kHelpColumn = 26;
  std::string out = "usage: " + command + " [flags]\n";
  if (!summary.empty()) out += summary + "\n";
  for (const FlagSpec& f : flags) {
    std::string left = "  --" + f.name;
    switch (f.kind) {
      case FlagKind::kBool: break;
      case FlagKind::kInt: left += " N"; break;
      case FlagKind::kReal: left += " R"; break;
      case FlagKind::kWord:
        left += " " + (f.choices.empty() ? "WORD" : choice_text(f));
        break;
    }
    std::string notes = range_text(f);
    if (!f.fallback.empty()) {
      notes += (notes.empty() ? "default " : "; default ") + f.fallback;
    }
    const std::string help =
        notes.empty() ? f.help : f.help + " (" + notes + ")";
    out += left.size() < kHelpColumn
               ? left + std::string(kHelpColumn - left.size(), ' ')
               : left + "\n" + std::string(kHelpColumn, ' ');
    out += help + "\n";
  }
  return out;
}

}  // namespace alpu::common
