/// \file cli_args.hpp
/// Minimal --flag value parser shared by the CLIs (tools/caft_cli,
/// tools/campaign_cli): flags are --name value pairs, bare flags
/// (--gantt) map to "true", anything not starting with -- is positional.
///
/// Numeric accessors parse *strictly*: a malformed value ("12x", "", a bare
/// flag where a number is required, a negative count) throws CheckError
/// with the flag name and offending text instead of silently truncating or
/// falling back to the default — a typo'd `--replays 10O0` must fail loudly,
/// not run a 10-replay campaign. So must a typo'd flag name: reject_unread()
/// fails on every flag no accessor consulted.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace caft {

class CliArgs {
 public:
  /// Parses argv[first..argc); `first` skips the program name and any
  /// subcommand the caller consumed.
  CliArgs(int argc, char** argv, int first = 1) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        positional_.push_back(std::move(key));
        continue;
      }
      key.erase(0, 2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return find(key) != values_.end();
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = find(key);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(it->second, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != it->second.size())
      throw CheckError("invalid number for --" + key + ": '" + it->second +
                       "'");
    return value;
  }
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t fallback) const {
    const auto it = find(key);
    return it == values_.end() ? fallback : parse_count(key, it->second);
  }
  /// `text` as a strict decimal count: digits only, below 2^64. Throws
  /// CheckError naming --`flag` otherwise.
  static std::size_t parse_count(const std::string& flag,
                                 const std::string& text) {
    std::size_t used = 0;
    unsigned long long value = 0;
    try {
      // stoull accepts a leading '-' (wrapping around); reject it up front
      // so "--replays -5" errors instead of requesting ~2^64 replays.
      if (text.find_first_not_of("0123456789") == std::string::npos &&
          !text.empty())
        value = std::stoull(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != text.size())
      throw CheckError("invalid count for --" + flag + ": '" + text + "'");
    return static_cast<std::size_t>(value);
  }
  /// The value of `key` constrained to one of `choices`; throws CheckError
  /// naming the valid set otherwise.
  [[nodiscard]] std::string get_choice(
      const std::string& key, const std::string& fallback,
      const std::vector<std::string>& choices) const {
    const std::string value = get(key, fallback);
    for (const std::string& choice : choices)
      if (value == choice) return value;
    std::string valid;
    for (const std::string& choice : choices) {
      if (!valid.empty()) valid += "|";
      valid += choice;
    }
    throw CheckError("invalid value for --" + key + ": '" + value +
                     "' (expected " + valid + ")");
  }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Throws CheckError naming every flag no accessor consulted (a typo, or
  /// one this mode never reads). Call after reading options, before work.
  void reject_unread() const {
    std::string unread;
    for (const auto& entry : values_)
      if (read_.count(entry.first) == 0)
        unread += (unread.empty() ? "--" : ", --") + entry.first;
    if (!unread.empty())
      throw CheckError("unknown or unused flag(s): " + unread);
  }

  /// Validates up front that `path` (the value of --`flag`) can be opened
  /// for writing, so a run fails before hours of work rather than when the
  /// output file finally opens. Probes with an append-mode open — an
  /// existing file is left byte-identical (no truncation) and a created
  /// empty file is what the real writer would produce anyway. Throws
  /// CheckError naming the flag on failure.
  static void check_writable_path(const std::string& flag,
                                  const std::string& path) {
    CAFT_CHECK_MSG(!path.empty() && path != "true",
                   "--" + flag + " needs a file path");
    std::ofstream probe(path, std::ios::app);
    CAFT_CHECK_MSG(probe.good(),
                   "--" + flag + ": cannot write '" + path + "'");
  }

  /// Validates a TCP port value (the value of --`flag`): strictly decimal
  /// digits, in [0, 65535]. 0 is allowed — it means "pick an ephemeral
  /// port" to bind(), which is exactly what test harnesses pass. Returns
  /// the parsed port; throws CheckError naming the flag otherwise (the
  /// get_size rules: "80x", "", "-1" and bare flags all throw).
  static std::uint16_t check_port(const std::string& flag,
                                  const std::string& text) {
    CAFT_CHECK_MSG(
        !text.empty() && text != "true" &&
            text.find_first_not_of("0123456789") == std::string::npos,
        "--" + flag + ": invalid port '" + text + "' (expected 0-65535)");
    // Digits only, so stoull cannot throw invalid_argument; cap the length
    // before parsing so "999999999999999999999" cannot overflow either.
    CAFT_CHECK_MSG(text.size() <= 5 && std::stoull(text) <= 65535,
                   "--" + flag + ": port '" + text + "' is out of range "
                   "(expected 0-65535)");
    return static_cast<std::uint16_t>(std::stoull(text));
  }

  /// Validates a listen address (the value of --`flag`): a strict IPv4
  /// dotted quad — four decimal octets in [0, 255], no empty components, no
  /// stray characters, no leading '+'/'-'. Hostnames are deliberately
  /// rejected: a listen address names an interface, and resolving names
  /// would drag DNS (and its nondeterminism) into server startup. Throws
  /// CheckError suggesting 127.0.0.1 / 0.0.0.0; returns the address.
  static std::string check_listen_address(const std::string& flag,
                                          const std::string& text) {
    const auto fail = [&] {
      throw CheckError("--" + flag + ": invalid listen address '" + text +
                       "' (expected an IPv4 dotted quad, e.g. 127.0.0.1 for "
                       "local-only or 0.0.0.0 for all interfaces)");
    };
    std::size_t octets = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t dot = std::min(text.find('.', pos), text.size());
      const std::string part = text.substr(pos, dot - pos);
      if (part.empty() || part.size() > 3 ||
          part.find_first_not_of("0123456789") != std::string::npos ||
          std::stoul(part) > 255)
        fail();
      ++octets;
      pos = dot + 1;
    }
    if (octets != 4) fail();
    return text;
  }

 private:
  using Values = std::map<std::string, std::string>;
  Values::const_iterator find(const std::string& key) const {
    read_.insert(key);
    return values_.find(key);
  }

  Values values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;  ///< every key an accessor consulted
};

}  // namespace caft
