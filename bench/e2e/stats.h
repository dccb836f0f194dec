// Sample statistics and result plumbing for the end-to-end benchmark.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mendel::bench {

// Nearest-rank percentile (p in (0, 100]) of raw samples: the value at
// rank ceil(p/100 * n) of the sorted samples. Returns nullopt when fewer
// than `min_beyond` samples lie above that rank — such a percentile is
// set by a handful of outliers and cannot be compared between runs.
std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t min_beyond = 10);

// Median with no sample-count requirement (diagnostics, set-up times).
double median(std::vector<double> samples);

// FNV-1a (64-bit) over a byte string, chained through `hash`.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One workload run: the end-to-end metrics of the untraced pass, the
// per-layer metrics (counters, traced critical path), and the verdict of
// the correctness gate.
struct RunResult {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Why `correct` is false, one line each.
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with the
// end-to-end metrics (trace = false) or the per-layer ones (trace = true).
std::string result_json(const RunResult& result, bool trace);

// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

}  // namespace mendel::bench
