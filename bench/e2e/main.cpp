// mendel_bench: the end-to-end benchmark (see README.md).
//
//   mendel_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       Runs one workload. Prints every metric as "workload/metric value
//       unit", then, as the last line, one JSON object with the end-to-end
//       metrics (--trace 0) or the per-layer ones (--trace 1).
//   mendel_bench --smoke
//       Every workload for ~2 s with a 10-query traced pass; exits nonzero
//       if any correctness check fails.
//   mendel_bench --self-test
//       Unit checks of the percentile helper and the critical-path walk.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench/e2e/path.h"
#include "bench/e2e/stats.h"
#include "bench/e2e/workloads.h"
#include "src/common/simd.h"

namespace {

using namespace mendel::bench;

constexpr bool kOptimizedBuild =
#ifdef NDEBUG
    true;
#else
    false;
#endif

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed <n>] [--seconds <s>] "
               "[--trace <0|1>] [--scratch <dir>]\n"
               "       %s --smoke | --self-test\n",
               argv0, argv0);
  std::exit(2);
}

// Accepts "--flag value" and "--flag=value".
bool flag_value(int argc, char** argv, int& i, const char* flag,
                std::string& out) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(argv[i], flag, n) != 0) return false;
  if (argv[i][n] == '=') {
    out = argv[i] + n + 1;
    return true;
  }
  if (argv[i][n] != '\0' || i + 1 >= argc) return false;
  out = argv[++i];
  return true;
}

void print_context(const Options& options) {
  std::printf("context/nproc %u\ncontext/optimized %d\ncontext/simd %s\n"
              "context/seed %llu\n",
              std::thread::hardware_concurrency(), kOptimizedBuild ? 1 : 0,
              mendel::simd::level_name(mendel::simd::active_level()),
              static_cast<unsigned long long>(options.seed));
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "WARNING: built without NDEBUG; numbers are not comparable "
                 "to an optimized build\n");
  }
}

void print_metrics(const RunResult& result) {
  for (const auto* metrics : {&result.end_to_end, &result.per_layer}) {
    for (const Metric& m : *metrics) {
      std::printf("%s/%s %.6g %s\n", result.workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  for (const auto& error : result.errors) {
    std::fprintf(stderr, "%s: INCORRECT: %s\n", result.workload.c_str(),
                 error.c_str());
  }
}

// A metric that is not a finite number cannot be compared or serialized.
void check_finite(RunResult& result) {
  for (auto* metrics : {&result.end_to_end, &result.per_layer}) {
    for (Metric& m : *metrics) {
      if (!std::isfinite(m.value)) {
        result.fail("metric " + m.name + " is not finite");
        m.value = 0.0;
      }
    }
  }
}

int smoke(const std::string& scratch_dir) {
  bool ok = true;
  for (const auto& name : workload_names()) {
    Options options;
    options.scratch_dir = scratch_dir;
    options.workload = name;
    options.seconds = 2.0;
    options.trace = true;
    options.smoke = true;
    RunResult result = run_workload(options);
    check_finite(result);
    print_metrics(result);
    ok = ok && result.correct;
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int self_test() {
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 50) == 50.0, "p50 of 1..100 is rank 50");
  expect(percentile(hundred, 90) == 90.0, "p90 of 1..100 is rank 90");
  expect(!percentile(hundred, 99).has_value(),
         "p99 of 100 samples has 1 beyond: null");
  expect(percentile(hundred, 90.5, 0) == 91.0, "p90.5 rounds the rank up");
  expect(percentile(hundred, 99, 1) == 99.0, "min_beyond is honoured");
  expect(percentile(hundred, 100, 0) == 100.0, "p100 is the maximum");
  expect(!percentile({}, 50, 0).has_value(), "empty: null");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  expect(fnv1a({}) == 0xcbf29ce484222325ULL, "FNV-1a offset basis");

  mendel::obs::QueryTrace trace;
  auto span = [&](const char* name, std::uint64_t id, std::uint64_t parent,
                  double start, std::uint64_t ns = 0) {
    mendel::obs::SpanRecord s;
    s.name = name;
    s.span_id = id;
    s.parent_span = parent;
    s.start = start;
    s.duration_ns = ns;
    trace.spans.push_back(s);
  };
  span("client.submit", 1, 0, 10.0);
  span("coord.route", 2, 1, 10.001);
  span("group.broadcast", 3, 2, 10.002);   // lands at 10.009
  span("group.broadcast", 4, 2, 10.0025);  // lands last, at 10.010
  span("node.search", 5, 3, 10.003, 1'000'000);
  span("node.search", 6, 4, 10.003, 2'000'000);
  span("group.merge", 7, 4, 10.006);
  span("group.extend", 8, 4, 10.010);
  span("group.merge", 9, 3, 10.005);
  span("group.extend", 10, 3, 10.009);
  span("coord.fanin", 11, 2, 10.001, 10'000'000);
  span("coord.finish", 12, 2, 10.013);
  span("client.reply", 13, 1, 10.015);
  const PathBreakdown path = critical_path(trace, 0.015);
  const double want[] = {1, 1.5, 2.5, 1, 4, 1, 2, 2};
  bool intervals_ok = path.complete;
  for (std::size_t i = 0; i < kPathIntervals.size(); ++i) {
    intervals_ok = intervals_ok && std::abs(path.interval[i] * 1e3 -
                                            want[i]) < 1e-6;
  }
  expect(intervals_ok, "critical path follows the last-landing group");
  expect(std::abs(path.unaccounted) < 1e-9, "complete path: 0 unaccounted");
  trace.spans.erase(trace.spans.begin() + 6);  // drop its group.merge
  const PathBreakdown partial = critical_path(trace, 0.015);
  expect(!partial.complete, "missing span: incomplete");
  expect(std::abs(partial.unaccounted * 1e3 - 5.0) < 1e-6,
         "missing span: its two intervals become unaccounted");
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool run_smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--self-test") == 0) return self_test();
    if (std::strcmp(argv[i], "--smoke") == 0) {
      run_smoke = true;
    } else if (flag_value(argc, argv, i, "--workload", value)) {
      options.workload = value;
    } else if (flag_value(argc, argv, i, "--seed", value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag_value(argc, argv, i, "--seconds", value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag_value(argc, argv, i, "--trace", value)) {
      if (value != "0" && value != "1") usage(argv[0]);
      options.trace = value == "1";
    } else if (flag_value(argc, argv, i, "--scratch", value)) {
      options.scratch_dir = value;
    } else {
      usage(argv[0]);
    }
  }
  try {
    if (run_smoke) return smoke(options.scratch_dir);
    if (options.workload.empty() || !(options.seconds > 0.0)) usage(argv[0]);
    print_context(options);
    RunResult result = run_workload(options);
    check_finite(result);
    print_metrics(result);
    std::cout << result_json(result, options.trace) << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mendel_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
