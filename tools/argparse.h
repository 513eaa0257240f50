// Command-line parsing for msractl: --flag, --key value, --key=value and
// positional arguments, plus typed readers that reject malformed values.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace msra::tools {

/// Bad command-line input; msractl prints the message and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  /// Parses argv[start..); values may be "--key value" or "--key=value";
  /// bare "--key" followed by another option (or nothing) is a boolean flag.
  /// "--hint name=LOC" style options may repeat and accumulate.
  static Args parse(int argc, char** argv, int start = 1) {
    Args out;
    for (int i = start; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        out.positional_.push_back(std::move(token));
        continue;
      }
      token.erase(0, 2);
      std::string value;
      const auto eq = token.find('=');
      if (eq != std::string::npos) {
        value = token.substr(eq + 1);
        token.resize(eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      out.options_[token].push_back(std::move(value));
    }
    return out;
  }

  /// Throws UsageError naming the first option that `usage` does not list;
  /// usage text writes each accepted option as "--name " or "--name]".
  void check_known(const std::string& usage) const {
    for (const auto& [key, values] : options_) {
      if (usage.find("--" + key + " ") == std::string::npos &&
          usage.find("--" + key + "]") == std::string::npos) {
        throw UsageError("unknown option --" + key);
      }
    }
  }

  bool has(const std::string& key) const { return options_.count(key) != 0; }

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = options_.find(key);
    if (it == options_.end() || it->second.empty()) return fallback;
    return it->second.back();
  }

  /// The last --key value as an int no smaller than `min`; `fallback` when
  /// the option is absent or has no value.
  int get_int(const std::string& key, int fallback,
              int min = std::numeric_limits<int>::min()) const {
    const std::string text = get(key);
    return text.empty() ? fallback : to_number("--" + key, text, min);
  }

  /// The last --key value as a finite number; `fallback` when absent.
  double get_double(const std::string& key, double fallback) const {
    const std::string text = get(key);
    return text.empty() ? fallback
                        : to_number("--" + key, text,
                                    std::numeric_limits<double>::lowest());
  }

  /// --key N, a size in MiB, as bytes; N below `floor` counts as `floor`.
  std::uint64_t get_mb(const std::string& key, int fallback, int floor) const {
    return static_cast<std::uint64_t>(std::max(floor, get_int(key, fallback)))
           << 20;
  }

  /// Every "--key NAME=VALUE" in order. A bare NAME takes `fallback`, and
  /// is an error when `fallback` is null.
  std::vector<std::pair<std::string, std::string>> get_specs(
      const std::string& key, const char* fallback) const {
    std::vector<std::pair<std::string, std::string>> specs;
    for (const std::string& spec : get_all(key)) {
      const auto eq = spec.find('=');
      if (eq == std::string::npos && fallback == nullptr) {
        throw UsageError("--" + key + " '" + spec + "' wants NAME=VALUE");
      }
      specs.emplace_back(spec.substr(0, eq), eq == std::string::npos
                                                 ? fallback
                                                 : spec.substr(eq + 1));
    }
    return specs;
  }

  /// All values supplied for a repeatable option.
  std::vector<std::string> get_all(const std::string& key) const {
    auto it = options_.find(key);
    return it == options_.end() ? std::vector<std::string>{} : it->second;
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// `text` as a whole, finite number no smaller than `min`; `what` names
  /// it in errors.
  template <typename T>
  static T to_number(const std::string& what, const std::string& text,
                     T min) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end ||
        !std::isfinite(static_cast<double>(value))) {
      throw UsageError(what + " '" + text + "' is not a number");
    }
    if (value < min) {
      throw UsageError(what + " must be at least " + std::to_string(min));
    }
    return value;
  }

 private:
  std::map<std::string, std::vector<std::string>> options_;
  std::vector<std::string> positional_;
};

}  // namespace msra::tools
