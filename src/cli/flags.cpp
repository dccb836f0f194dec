#include "src/cli/flags.h"

#include <cerrno>
#include <cstdlib>

#include "src/common/error.h"

namespace mendel::cli {

Flags Flags::parse(const std::vector<std::string>& args) {
  Flags flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token.size() < 3 || token.substr(0, 2) != "--") {
      flags.positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const auto eq = body.find('=');
    if (eq == 0) throw InvalidArgument("malformed flag: " + token);
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = {body.substr(eq + 1), false};
      continue;
    }
    // `--key value` unless the next token is another flag or absent;
    // then it's a boolean `--key`.
    if (i + 1 < args.size() && args[i + 1].substr(0, 2) != "--") {
      flags.values_[body] = {args[i + 1], false};
      ++i;
    } else {
      flags.values_[body] = {"true", false};
    }
  }
  return flags;
}

bool Flags::has(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return false;
  it->second.second = true;
  return true;
}

std::string Flags::str(const std::string& key,
                       const std::string& fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return it->second.first;
}

std::string Flags::str_required(const std::string& key) const {
  auto it = values_.find(key);
  require(it != values_.end(), "missing required flag --" + key);
  it->second.second = true;
  return it->second.first;
}

long long Flags::integer(const std::string& key, long long fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.first.c_str(), &end, 10);
  require(end != nullptr && *end == '\0' && !it->second.first.empty(),
          "flag --" + key + " expects an integer, got '" + it->second.first +
              "'");
  require(errno != ERANGE,
          "flag --" + key + " is out of range: " + it->second.first);
  return value;
}

double Flags::real(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  char* end = nullptr;
  const double value = std::strtod(it->second.first.c_str(), &end);
  require(end != nullptr && *end == '\0' && !it->second.first.empty(),
          "flag --" + key + " expects a number, got '" + it->second.first +
              "'");
  return value;
}

bool Flags::boolean(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return false;
  it->second.second = true;
  return it->second.first == "true" || it->second.first == "1";
}

void Flags::reject_unconsumed() const {
  std::string unknown;
  for (const auto& [key, value] : values_) {
    if (!value.second) unknown += " --" + key;
  }
  require(unknown.empty(), "unknown flag(s):" + unknown);
}

}  // namespace mendel::cli
