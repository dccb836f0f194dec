// Microbenchmarks for the vp-tree layer (google-benchmark).
//
// Covers the paper's §III-D design choices:
//   * bucket size vs build and search cost,
//   * batched rebalancing insertion vs naive split-in-place insertion
//     (the pathology the paper warns about),
//   * n-NN search cost and distance evaluations vs tree size, on the
//     clustered windows a node stores,
//   * vp-prefix hash throughput (the tier-1 routing cost).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/mendel/block.h"
#include "src/scoring/distance.h"
#include "src/vptree/dynamic_vptree.h"
#include "src/vptree/prefix_tree.h"
#include "src/workload/generator.h"

namespace {

using namespace mendel;

struct WindowMetric {
  const score::DistanceMatrix* distance;
  double operator()(const vpt::Window& a, const vpt::Window& b) const {
    return score::window_distance(*distance, a, b);
  }
};

// WindowMetric plus a shared call counter, so search benchmarks can report
// distance evaluations alongside wall time. Exposes bounded() so the trees'
// early-abandon path (the production hot path) is what gets measured;
// abandoned calls still count as one evaluation.
struct CountingMetric {
  const score::DistanceMatrix* distance;
  std::shared_ptr<std::uint64_t> evals;
  double operator()(const vpt::Window& a, const vpt::Window& b) const {
    ++*evals;
    return score::window_distance(*distance, a, b);
  }
  double bounded(const vpt::Window& a, const vpt::Window& b,
                 double bound) const {
    ++*evals;
    return score::window_distance_bounded(*distance, a, b, bound);
  }
};

std::vector<vpt::Window> make_windows(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<vpt::Window> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s =
        workload::random_sequence(seq::Alphabet::kProtein, 8, "w", rng);
    windows.emplace_back(s.codes().begin(), s.codes().end());
  }
  return windows;
}

const score::DistanceMatrix& dist() {
  return score::default_distance(seq::Alphabet::kProtein);
}

// Bulk build: one insert_batch into an empty tree, swept over leaf size.
void BM_VpTreeBuild(benchmark::State& state) {
  const auto windows = make_windows(static_cast<std::size_t>(state.range(0)),
                                    42);
  for (auto _ : state) {
    vpt::DynamicVpTree<vpt::Window, WindowMetric> tree(
        WindowMetric{&dist()},
        {.bucket_capacity = static_cast<std::size_t>(state.range(1))});
    tree.insert_batch(windows);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VpTreeBuild)
    ->Args({2000, 8})
    ->Args({2000, 32})
    ->Args({2000, 128})
    ->Args({20000, 32});

// What a node stores and is asked for: `count` windows drawn from every
// window of a family-structured database (family members share most
// windows up to mutation), and probes cut from 95%-similar copies of its
// sequences (bench/e2e's queries carry 5% noise).
struct FamilyWindows {
  std::vector<vpt::Window> windows;
  std::vector<vpt::Window> probes;
};

FamilyWindows family_windows(std::size_t count, std::uint64_t seed) {
  workload::DatabaseSpec spec;
  spec.families = std::max<std::size_t>(2, count / 2000);
  spec.members_per_family = 5;
  spec.background_sequences = spec.families;
  spec.min_length = 300;
  spec.max_length = 500;
  spec.seed = seed;
  const auto store = workload::generate_database(spec);
  FamilyWindows out;
  for (std::size_t s = 0; s < store.size(); ++s) {
    for (auto& block : core::make_blocks(store.at(s), 8)) {
      out.windows.push_back(std::move(block.window));
    }
  }
  Rng rng(seed + 1);
  for (std::size_t i = out.windows.size(); i > 1; --i) {
    std::swap(out.windows[i - 1], out.windows[rng.below(i)]);
  }
  out.windows.resize(std::min(count, out.windows.size()));
  for (int i = 0; i < 64; ++i) {
    const auto mutated = workload::mutate_to_similarity(
        store.at(rng.below(store.size())), 0.95, "p", rng);
    const auto& codes = mutated.codes();
    const auto start =
        static_cast<std::ptrdiff_t>(rng.below(codes.size() - 8 + 1));
    out.probes.emplace_back(codes.begin() + start, codes.begin() + start + 8);
  }
  return out;
}

// n-NN search (no radius cap) over family-derived windows, for n = 1 and
// the node's default n = 16; dist_evals per search against the tree size
// shows what the vantage pruning skips. A subtree is skipped only when
// the n-th neighbour's radius is below the gap between the probe's
// distance to the vantage point and the split radius, and 8-residue
// protein distances are bunched tightly around their mean: at n = 16 the
// radius spans that bunch and the search touches almost every window.
void BM_VpTreeKnnSearch(benchmark::State& state) {
  const auto [windows, probes] =
      family_windows(static_cast<std::size_t>(state.range(0)), 43);
  auto evals = std::make_shared<std::uint64_t>(0);
  vpt::DynamicVpTree<vpt::Window, CountingMetric> tree(
      CountingMetric{&dist(), evals}, {.bucket_capacity = 32});
  tree.insert_batch(windows);
  std::size_t p = 0;
  *evals = 0;  // drop the build-phase evaluations
  for (auto _ : state) {
    const auto neighbors = tree.nearest(
        probes[p++ % probes.size()], static_cast<std::size_t>(state.range(1)));
    benchmark::DoNotOptimize(neighbors.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("blocks " + std::to_string(tree.size()));
  state.counters["dist_evals"] = benchmark::Counter(
      static_cast<double>(*evals), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_VpTreeKnnSearch)->ArgsProduct({{1000, 10000, 100000}, {1, 16}});

void BM_DynamicInsertBalanced(benchmark::State& state) {
  const auto windows = make_windows(static_cast<std::size_t>(state.range(0)),
                                    45);
  for (auto _ : state) {
    vpt::DynamicVpTree<vpt::Window, WindowMetric> tree(
        WindowMetric{&dist()}, {.bucket_capacity = 32});
    for (const auto& w : windows) tree.insert(w);
    benchmark::DoNotOptimize(tree.depth());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DynamicInsertBalanced)->Arg(2000)->Arg(8000);

void BM_DynamicInsertNaive(benchmark::State& state) {
  const auto windows = make_windows(static_cast<std::size_t>(state.range(0)),
                                    45);
  for (auto _ : state) {
    vpt::DynamicVpTree<vpt::Window, WindowMetric> tree(
        WindowMetric{&dist()},
        {.bucket_capacity = 32, .rebalance = false});
    for (const auto& w : windows) tree.insert(w);
    benchmark::DoNotOptimize(tree.depth());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DynamicInsertNaive)->Arg(2000)->Arg(8000);

void BM_DynamicInsertBatch(benchmark::State& state) {
  const auto windows = make_windows(static_cast<std::size_t>(state.range(0)),
                                    46);
  for (auto _ : state) {
    vpt::DynamicVpTree<vpt::Window, WindowMetric> tree(
        WindowMetric{&dist()}, {.bucket_capacity = 32});
    // The paper's middle ground: large batches instead of per element.
    const std::size_t batch = 512;
    for (std::size_t i = 0; i < windows.size(); i += batch) {
      const auto end = std::min(windows.size(), i + batch);
      tree.insert_batch({windows.begin() + static_cast<std::ptrdiff_t>(i),
                         windows.begin() + static_cast<std::ptrdiff_t>(end)});
    }
    benchmark::DoNotOptimize(tree.depth());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DynamicInsertBatch)->Arg(2000)->Arg(8000);

// Search cost after naive insertion of *similar* (sorted-ish) data — the
// degenerate case §III-D describes. Compare against the balanced variant.
void BM_SearchAfterAdversarialInserts(benchmark::State& state) {
  const bool rebalance = state.range(0) != 0;
  Rng rng(47);
  const auto base =
      workload::random_sequence(seq::Alphabet::kProtein, 8, "b", rng);
  auto evals = std::make_shared<std::uint64_t>(0);
  vpt::DynamicVpTree<vpt::Window, CountingMetric> tree(
      CountingMetric{&dist(), evals},
      {.bucket_capacity = 32, .rebalance = rebalance});
  // Insert 4000 windows in waves of increasing divergence from one base —
  // strongly correlated insertion order.
  for (int wave = 0; wave < 40; ++wave) {
    for (int i = 0; i < 100; ++i) {
      const auto w = workload::mutate_to_similarity(
          base, 1.0 - wave * 0.02, "m", rng);
      tree.insert(vpt::Window(w.codes().begin(), w.codes().end()));
    }
  }
  const auto probes = make_windows(64, 48);
  std::size_t p = 0;
  *evals = 0;  // drop the insert-phase evaluations
  for (auto _ : state) {
    const auto neighbors = tree.nearest(probes[p++ % probes.size()], 16);
    benchmark::DoNotOptimize(neighbors.size());
  }
  state.SetLabel(rebalance ? "rebalanced" : "naive");
  state.counters["dist_evals"] = benchmark::Counter(
      static_cast<double>(*evals), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SearchAfterAdversarialInserts)->Arg(0)->Arg(1);

void BM_PrefixTreeHash(benchmark::State& state) {
  vpt::VpPrefixTree tree(&dist(), {.cutoff_depth =
                                       static_cast<std::size_t>(
                                           state.range(0))});
  tree.build(make_windows(4000, 49));
  const auto probes = make_windows(256, 50);
  std::size_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.hash(probes[p++ % probes.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixTreeHash)->Arg(4)->Arg(6)->Arg(8);

void BM_PrefixTreeHashMulti(benchmark::State& state) {
  vpt::VpPrefixTree tree(&dist(), {.cutoff_depth = 6});
  tree.build(make_windows(4000, 51));
  const auto probes = make_windows(256, 52);
  const double epsilon = static_cast<double>(state.range(0));
  std::size_t p = 0;
  std::size_t total_groups = 0, calls = 0;
  for (auto _ : state) {
    const auto groups =
        tree.hash_multi(probes[p++ % probes.size()], epsilon);
    total_groups += groups.size();
    ++calls;
    benchmark::DoNotOptimize(groups.size());
  }
  state.SetLabel("mean fan-out " +
                 std::to_string(static_cast<double>(total_groups) /
                                static_cast<double>(calls ? calls : 1)));
}
BENCHMARK(BM_PrefixTreeHashMulti)->Arg(0)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
