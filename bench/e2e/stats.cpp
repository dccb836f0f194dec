#include "bench/e2e/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace mendel::bench {

std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t min_beyond) {
  if (samples.empty() || p <= 0.0 || p > 100.0) return std::nullopt;
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  return *percentile(std::move(samples), 50.0, 0);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t hash) {
  for (std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_metrics(std::string& out, const std::vector<Metric>& metrics) {
  out += "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}";
}

}  // namespace

std::string result_json(const RunResult& result, bool trace) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": ";
  append_metrics(out, trace ? result.per_layer : result.end_to_end);
  out += "}";
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

}  // namespace mendel::bench
