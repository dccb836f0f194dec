// Minimal command-line flag parsing for the mendel CLI.
//
// Accepts `--key=value`, `--key value`, and boolean `--key`; everything
// else is a positional argument. Typed accessors validate on read so each
// command declares its contract where it consumes it.
#pragma once

#include <concepts>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.h"

namespace mendel::cli {

class Flags {
 public:
  // Parses argv-style tokens (program name NOT included). Throws
  // mendel::InvalidArgument on malformed tokens ("--" alone, "--=x").
  static Flags parse(const std::vector<std::string>& args);

  bool has(const std::string& key) const;

  // Typed accessors; the defaulted forms return the default when the flag
  // is absent, the required forms throw InvalidArgument when missing.
  // Value parsing failures always throw.
  std::string str(const std::string& key, const std::string& fallback) const;
  std::string str_required(const std::string& key) const;
  long long integer(const std::string& key, long long fallback) const;
  // integer() for a destination of type T: a value T cannot hold (a
  // negative count, 2^32 for a uint32_t) throws instead of wrapping.
  template <std::integral T>
  T integer_as(const std::string& key, T fallback) const {
    if (!has(key)) return fallback;
    const long long value = integer(key, 0);
    require(std::in_range<T>(value), "flag --" + key + " is out of range: " +
                                         std::to_string(value));
    return static_cast<T>(value);
  }
  double real(const std::string& key, double fallback) const;
  // Boolean flag: present (with no value or "true"/"1") => true.
  bool boolean(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Keys that were provided but never read — commands call this last to
  // reject typos. Throws InvalidArgument listing the unknown flags.
  void reject_unconsumed() const;

 private:
  // value + consumed marker (mutable: reads mark consumption).
  mutable std::map<std::string, std::pair<std::string, bool>> values_;
  std::vector<std::string> positional_;
};

}  // namespace mendel::cli
