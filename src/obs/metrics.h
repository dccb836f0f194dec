// Cluster-wide metrics registry: named counters, gauges, and log-scale
// latency histograms behind one snapshot/export surface.
//
// Design constraints, in order:
//   1. Hot-path writes must stay within noise of the uninstrumented
//      benchmarks (BENCH_hotpath.json, bench/e2e). Every write is
//      therefore a relaxed atomic add on a cache-line-padded shard — no
//      locks, no branches beyond a null check at the call site.
//   2. Reads (snapshot/export) are rare and may be slow: value() sums the
//      shards, snapshot() walks the registry under its registration mutex.
//   3. Instrument handles are stable for the registry's lifetime, so
//      subsystems resolve names once (construction time) and keep raw
//      pointers; the per-event path never touches the name table.
//
// The storage nodes shard by node id and the client by thread, so under
// the threaded runtime concurrent writers land on distinct cache lines;
// under the single-threaded simulator the same code degenerates to plain
// increments on one line.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/thread_annotations.h"

namespace mendel::obs {

// Monotonic event count. Writers pick a shard (their node id, or a cached
// per-thread slot) so concurrent increments never contend on one line.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) { add_shard(this_thread_shard(), n); }
  void add_shard(std::size_t shard, std::uint64_t n = 1) {
    shards_[shard % kShards].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static std::size_t this_thread_shard();

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_;
};

// Point-in-time signed value (queue depths, in-flight counts).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Latency histogram with power-of-two nanosecond buckets: bin i counts
// samples in [2^(i-1), 2^i) ns (bin 0 is exactly 0 ns), so 64 bins span
// 1 ns to ~584 years with ~2x resolution — the right trade for latency
// profiles whose interesting structure is in orders of magnitude.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBins = 64;

  void record_ns(std::uint64_t ns);
  void record_seconds(double seconds) {
    record_ns(seconds <= 0.0
                  ? 0
                  : static_cast<std::uint64_t>(seconds * 1e9 + 0.5));
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t bin(std::size_t i) const {
    return bins_[i].load(std::memory_order_relaxed);
  }

  // Upper bound (exclusive) of bin i in nanoseconds.
  static std::uint64_t bin_upper_ns(std::size_t i) {
    return i == 0 ? 1 : (i >= 63 ? ~0ULL : (1ULL << i));
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBins> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_ns_{~0ULL};
  std::atomic<std::uint64_t> max_ns_{0};

  friend struct HistogramValue;
  friend class MetricsRegistry;
};

// --- snapshot --------------------------------------------------------------

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  // Sparse (bin index, count) pairs, ascending index, zero bins omitted.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> bins;

  // Nearest-rank percentile, reported as the matched bin's upper bound
  // (p in [0,100]); 0 for an empty histogram.
  std::uint64_t percentile_ns(double p) const;
  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) /
                            static_cast<double>(count);
  }
};

// One coherent reading of every registered instrument, plus any synthetic
// entries the caller folded in (Client::metrics() appends node counters,
// transport traffic, and trace buffer stats). Entries are sorted by name.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  // Lookup helpers; counter()/gauge() return 0 when absent (absent and
  // never-incremented are indistinguishable by design).
  std::uint64_t counter(std::string_view name) const;
  std::int64_t gauge(std::string_view name) const;
  const HistogramValue* histogram(std::string_view name) const;

  // Re-establishes the sorted-by-name invariant after appending synthetic
  // entries.
  void sort();

  // Exports. The JSON layout is pinned by tools/metrics_schema.json and
  // the round-trip test in tests/obs_test.cpp.
  std::string to_json() const;
  // Prometheus text exposition: '.' in names becomes '_', histograms
  // render as cumulative le-buckets with +Inf, _sum (seconds) and _count.
  std::string to_prometheus() const;
};

// --- registry --------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Resolve-or-create by name. The returned reference is stable for the
  // registry's lifetime; resolve once and cache.
  Counter& counter(std::string_view name) MENDEL_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) MENDEL_EXCLUDES(mu_);
  LatencyHistogram& histogram(std::string_view name) MENDEL_EXCLUDES(mu_);

  MetricsSnapshot snapshot() const MENDEL_EXCLUDES(mu_);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      MENDEL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      MENDEL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_ MENDEL_GUARDED_BY(mu_);
};

// RAII latency probe: records the elapsed wall time into `histogram` on
// destruction. A null histogram makes the probe free apart from the
// construction-time clock read being skipped entirely.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mendel::obs
