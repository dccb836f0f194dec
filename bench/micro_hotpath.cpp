// Microbenchmarks for the node-local NN hot path (google-benchmark).
//
// Tracks the kernels that dominate query turnaround (paper §V-B): the
// per-residue window distance, tau-bounded leaf scans, vp-tree k-NN over
// block windows, block ingestion, and the full on_node_search handler
// driven through real wire messages. Baseline/after numbers for each
// optimization PR are recorded in BENCH_hotpath.json.
//
// Everything here goes through public, layout-agnostic APIs (distance
// functions, DynamicVpTree with a bench-local metric, StorageNode via
// kInsertBlocks/kNodeSearch messages), so the same binary measures the
// code before and after internal data-layout changes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "bench/micro_main.h"
#include "src/align/banded.h"
#include "src/cluster/topology.h"
#include "src/mendel/block.h"
#include "src/mendel/protocol.h"
#include "src/mendel/storage_node.h"
#include "src/net/sim_transport.h"
#include "src/obs/metrics.h"
#include "src/scoring/distance.h"
#include "src/vptree/dynamic_vptree.h"
#include "src/vptree/prefix_tree.h"
#include "src/vptree/window_arena.h"
#include "src/workload/generator.h"

namespace {

using namespace mendel;

constexpr std::size_t kWindowLength = 8;

const score::DistanceMatrix& dist() {
  return score::default_distance(seq::Alphabet::kProtein);
}

std::vector<vpt::Window> make_windows(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<vpt::Window> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = workload::random_sequence(seq::Alphabet::kProtein,
                                             kWindowLength, "w", rng);
    windows.emplace_back(s.codes().begin(), s.codes().end());
  }
  return windows;
}

// Probe windows cut from mutated copies of database sequences, so searches
// actually find neighbors instead of abandoning everything immediately.
std::vector<vpt::Window> make_probes(const seq::SequenceStore& store,
                                     std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<vpt::Window> probes;
  probes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& origin = store.at(rng.below(store.size()));
    const auto mutated =
        workload::mutate_to_similarity(origin, 0.7, "p", rng);
    const auto& codes = mutated.codes();
    const std::size_t start =
        rng.below(codes.size() - kWindowLength + 1);
    probes.emplace_back(codes.begin() + static_cast<std::ptrdiff_t>(start),
                        codes.begin() +
                            static_cast<std::ptrdiff_t>(start + kWindowLength));
  }
  return probes;
}

seq::SequenceStore make_store(std::size_t sequences, std::uint64_t seed) {
  workload::DatabaseSpec spec;
  spec.families = std::max<std::size_t>(2, sequences / 10);
  spec.members_per_family = 5;
  spec.background_sequences =
      sequences > spec.families * 5 ? sequences - spec.families * 5 : 2;
  spec.min_length = 300;
  spec.max_length = 500;
  spec.seed = seed;
  return workload::generate_database(spec);
}

// --- 1. distance kernel -------------------------------------------------

void BM_DistanceKernel(benchmark::State& state) {
  const auto windows = make_windows(1024, 101);
  std::size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    const auto& a = windows[i % windows.size()];
    const auto& b = windows[(i * 7 + 1) % windows.size()];
    sink += score::window_distance(dist(), a, b);
    ++i;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DistanceKernel);

void BM_DistanceKernelBounded(benchmark::State& state) {
  const auto windows = make_windows(1024, 102);
  const double bound = static_cast<double>(state.range(0));
  std::size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    const auto& a = windows[i % windows.size()];
    const auto& b = windows[(i * 7 + 1) % windows.size()];
    sink += score::window_distance_bounded(dist(), a, b, bound);
    ++i;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
// 1e9 never abandons (pure overhead check); 20 abandons most pairs.
BENCHMARK(BM_DistanceKernelBounded)->Arg(1000000000)->Arg(20);

// --- 2. leaf scan -------------------------------------------------------

// Top-16-of-N brute-force scan with a running tau, the inner loop shape of
// a vp-tree bucket visit.
void BM_LeafScan(benchmark::State& state) {
  const auto windows =
      make_windows(static_cast<std::size_t>(state.range(0)), 103);
  const auto probes = make_windows(64, 104);
  constexpr std::size_t kNeighbors = 16;
  std::size_t p = 0;
  for (auto _ : state) {
    const auto& probe = probes[p++ % probes.size()];
    std::vector<double> best;
    best.reserve(kNeighbors + 1);
    double tau = std::numeric_limits<double>::infinity();
    for (const auto& w : windows) {
      const double d = score::window_distance_bounded(dist(), probe, w, tau);
      if (d > tau) continue;
      best.insert(std::upper_bound(best.begin(), best.end(), d), d);
      if (best.size() > kNeighbors) best.pop_back();
      if (best.size() == kNeighbors) tau = best.back();
    }
    benchmark::DoNotOptimize(best.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LeafScan)->Arg(4096);

// Same top-16-of-N scan, but the way a node's leaf scan runs it: one
// QProbe per probe, arena windows scored in chunks by the dispatched
// batched kernel (the short-window shuffle kernel on AVX2), and admission
// tested on scaled integers. The BM_LeafScan/BM_LeafScanBatched ratio is
// the isolated batching win.
void BM_LeafScanBatched(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto windows = make_windows(count, 103);
  const auto probes = make_windows(64, 104);
  vpt::WindowArena arena;
  for (const auto& w : windows) arena.append(seq::CodeSpan(w));
  std::vector<std::uint32_t> slots(count);
  for (std::size_t i = 0; i < count; ++i) {
    slots[i] = static_cast<std::uint32_t>(i);
  }
  const score::QuantizedDistance* q = dist().quantized();
  if (q == nullptr) {
    state.SkipWithError("distance matrix has no quantized twin");
    return;
  }
  constexpr std::size_t kNeighbors = 16;
  constexpr std::size_t kChunk = 64;
  std::size_t p = 0;
  for (auto _ : state) {
    const auto& probe = probes[p++ % probes.size()];
    std::vector<double> best;
    best.reserve(kNeighbors + 1);
    const score::QProbe qp(*q, probe.data(), kWindowLength);
    std::int64_t qthresh = std::numeric_limits<std::int64_t>::max();
    std::int64_t qdists[kChunk];
    for (std::size_t offset = 0; offset < count; offset += kChunk) {
      const std::size_t run = std::min(count - offset, kChunk);
      qp.scan(arena.base(), arena.stride(), slots.data() + offset, run,
              qthresh, qdists);
      for (std::size_t j = 0; j < run; ++j) {
        if (qdists[j] > qthresh) continue;
        const double d = q->to_double(qdists[j]);
        best.insert(std::upper_bound(best.begin(), best.end(), d), d);
        if (best.size() > kNeighbors) best.pop_back();
        if (best.size() == kNeighbors) qthresh = q->threshold(best.back());
      }
    }
    benchmark::DoNotOptimize(best.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LeafScanBatched)->Arg(4096);

// The packed twin: DNA windows stored at 2 bits per residue, scored
// without unpacking (the XOR and popcount kernel on AVX2) at 1/4 the
// memory of BM_LeafScanBatched.
void BM_LeafScanBatchedPacked(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(111);
  auto dna_window = [&rng]() {
    vpt::Window w(kWindowLength);
    for (auto& c : w) c = static_cast<seq::Code>(rng.below(4));
    return w;
  };
  std::vector<vpt::Window> windows(count);
  for (auto& w : windows) w = dna_window();
  std::vector<vpt::Window> probes(64);
  for (auto& w : probes) w = dna_window();
  vpt::WindowArena arena;
  arena.configure({.packed_bits = 2});
  for (const auto& w : windows) arena.append(seq::CodeSpan(w));
  std::vector<std::uint32_t> slots(count);
  for (std::size_t i = 0; i < count; ++i) {
    slots[i] = static_cast<std::uint32_t>(i);
  }
  const auto& dna = score::default_distance(seq::Alphabet::kDna);
  const score::QuantizedDistance* q = dna.quantized();
  if (q == nullptr) {
    state.SkipWithError("distance matrix has no quantized twin");
    return;
  }
  constexpr std::size_t kNeighbors = 16;
  constexpr std::size_t kChunk = 64;
  std::size_t p = 0;
  for (auto _ : state) {
    const auto& probe = probes[p++ % probes.size()];
    std::vector<double> best;
    best.reserve(kNeighbors + 1);
    const score::QProbe qp(*q, probe.data(), kWindowLength);
    std::int64_t qthresh = std::numeric_limits<std::int64_t>::max();
    std::int64_t qdists[kChunk];
    for (std::size_t offset = 0; offset < count; offset += kChunk) {
      const std::size_t run = std::min(count - offset, kChunk);
      qp.scan_packed(arena.base(), arena.stride(), arena.packed_bits(),
                     slots.data() + offset, run, qthresh, qdists);
      for (std::size_t j = 0; j < run; ++j) {
        if (qdists[j] > qthresh) continue;
        const double d = q->to_double(qdists[j]);
        best.insert(std::upper_bound(best.begin(), best.end(), d), d);
        if (best.size() > kNeighbors) best.pop_back();
        if (best.size() == kNeighbors) qthresh = q->threshold(best.back());
      }
    }
    benchmark::DoNotOptimize(best.data());
  }
  state.SetLabel("row bytes " + std::to_string(arena.row_bytes()));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LeafScanBatchedPacked)->Arg(4096);

// --- 2b. banded gapped extension ----------------------------------------

// The gapped-extension kernel on realistic anchor extensions: ~70%
// identity pairs, paper-default band radius. Counts alignments per second
// through the dispatched entry point (force scalar via MENDEL_SIMD_LEVEL
// to record the baseline side).
void BM_BandedExtend(benchmark::State& state) {
  Rng rng(110);
  const auto& scores = score::blosum62();
  constexpr std::size_t kPairs = 64;
  std::vector<std::pair<seq::Sequence, seq::Sequence>> pairs;
  pairs.reserve(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    auto a = workload::random_sequence(seq::Alphabet::kProtein, 400, "a",
                                       rng);
    auto b = workload::mutate_to_similarity(a, 0.7, "b", rng);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  align::BandedParams params;
  params.band_radius = static_cast<std::size_t>(state.range(0));
  params.center_diag = 0;
  std::size_t i = 0;
  std::int64_t sink = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ % pairs.size()];
    const auto result = align::banded_local_align(
        seq::CodeSpan(a.codes()), seq::CodeSpan(b.codes()), scores,
        scores.default_gaps(), params);
    sink += result.hsp.score;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BandedExtend)->Arg(16)->Arg(64);

// --- 3. vp-tree k-NN over block windows ---------------------------------

struct WindowMetric {
  const score::DistanceMatrix* distance;
  double operator()(const vpt::Window& a, const vpt::Window& b) const {
    return score::window_distance(*distance, a, b);
  }
  double bounded(const vpt::Window& a, const vpt::Window& b,
                 double bound) const {
    return score::window_distance_bounded(*distance, a, b, bound);
  }
};

void BM_TreeKnn(benchmark::State& state) {
  const auto store = make_store(64, 105);
  vpt::DynamicVpTree<vpt::Window, WindowMetric> tree(WindowMetric{&dist()},
                                                     {.bucket_capacity = 32});
  std::vector<vpt::Window> windows;
  for (std::size_t s = 0; s < store.size(); ++s) {
    for (auto& block : core::make_blocks(store.at(s), kWindowLength)) {
      windows.push_back(std::move(block.window));
    }
  }
  constexpr std::size_t kBatch = 512;
  for (std::size_t i = 0; i < windows.size(); i += kBatch) {
    const auto end = std::min(windows.size(), i + kBatch);
    tree.insert_batch({windows.begin() + static_cast<std::ptrdiff_t>(i),
                       windows.begin() + static_cast<std::ptrdiff_t>(end)});
  }
  const auto probes = make_probes(store, 64, 106);
  // The radius cap on_node_search derives from the identity threshold.
  const double cap = (1.0 - 0.3) * kWindowLength * dist().max_entry();
  std::size_t p = 0;
  for (auto _ : state) {
    const auto neighbors = tree.nearest(probes[p++ % probes.size()], 16, cap);
    benchmark::DoNotOptimize(neighbors.size());
  }
  state.SetLabel("blocks " + std::to_string(tree.size()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeKnn);

// --- 4/5. storage node end to end ---------------------------------------

// Shared fixture: a 1-group / 1-node cluster with a real prefix tree, fed
// through the same wire messages the indexer sends.
struct NodeFixture {
  cluster::Topology topology{{.num_groups = 1, .nodes_per_group = 1}};
  vpt::VpPrefixTree prefix_tree{&dist(), {.cutoff_depth = 4}};
  seq::SequenceStore store = make_store(96, 107);
  std::vector<core::Block> blocks;
  std::vector<std::vector<std::uint8_t>> insert_payloads;

  NodeFixture() {
    prefix_tree.build(make_windows(2000, 108));
    topology.bind_prefixes(prefix_tree.leaf_prefixes());
    for (std::size_t s = 0; s < store.size(); ++s) {
      for (auto& block : core::make_blocks(store.at(s), kWindowLength)) {
        blocks.push_back(std::move(block));
      }
    }
    constexpr std::size_t kBatch = 512;
    for (std::size_t i = 0; i < blocks.size(); i += kBatch) {
      const auto end = std::min(blocks.size(), i + kBatch);
      core::InsertBlocksPayload payload;
      payload.blocks.assign(blocks.begin() + static_cast<std::ptrdiff_t>(i),
                            blocks.begin() + static_cast<std::ptrdiff_t>(end));
      insert_payloads.push_back(core::encode_payload(payload));
    }
  }

  core::StorageNodeConfig node_config() const {
    core::StorageNodeConfig config;
    config.topology = &topology;
    config.prefix_tree = &prefix_tree;
    config.distance = &dist();
    config.alphabet = seq::Alphabet::kProtein;
    // The subquery NN cache would otherwise answer every repeated probe
    // after the first iteration and the bench would measure cache lookups,
    // not searches (the cache has its own closed-loop bench in
    // micro_pipeline).
    config.nn_cache_capacity = 0;
    return config;
  }

  static const NodeFixture& instance() {
    static NodeFixture fixture;
    return fixture;
  }
};

net::CostModel quiet_cost() {
  net::CostModel cost;
  cost.measured_cpu = false;  // skip per-handler clock reads
  return cost;
}

// End-to-end block ingestion: decode + dedup + dynamic vp-tree insertion.
void BM_StorageInsertBatch(benchmark::State& state) {
  const auto& fix = NodeFixture::instance();
  for (auto _ : state) {
    net::SimTransport transport(quiet_cost());
    core::StorageNode node(0, fix.node_config());
    transport.register_actor(0, &node);
    for (const auto& payload : fix.insert_payloads) {
      transport.send({.from = net::kClientNode,
                      .to = 0,
                      .type = core::kInsertBlocks,
                      .request_id = 0,
                      .payload = payload});
    }
    transport.run_until_idle();
    benchmark::DoNotOptimize(node.block_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fix.blocks.size()));
}
BENCHMARK(BM_StorageInsertBatch);

// The acceptance kernel: a full on_node_search handler — payload decode,
// per-subquery bounded n-NN with radius cap, identity + c-score filters,
// reply encode — measured per subquery.
void BM_NodeSearch(benchmark::State& state) {
  const auto& fix = NodeFixture::instance();
  static net::SimTransport transport(quiet_cost());
  // Metrics attached (tracing off) so the bench measures the handler as it
  // runs in production: histogram records are part of the hot path budget.
  static obs::MetricsRegistry registry;
  static core::StorageNode node(0, [&] {
    auto config = fix.node_config();
    config.metrics = &registry;
    return config;
  }());
  static net::FunctionActor sink([](const net::Message&, net::Context&) {});
  static bool loaded = false;
  if (!loaded) {
    loaded = true;
    transport.register_actor(0, &node);
    transport.register_actor(net::kClientNode, &sink);
    for (const auto& payload : fix.insert_payloads) {
      transport.send({.from = net::kClientNode,
                      .to = 0,
                      .type = core::kInsertBlocks,
                      .request_id = 0,
                      .payload = payload});
    }
    transport.run_until_idle();
  }

  constexpr std::size_t kSubqueries = 64;
  const auto probes = make_probes(fix.store, kSubqueries, 109);
  core::NodeSearchPayload search;
  search.params.k = kWindowLength;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    search.subqueries.push_back(
        {static_cast<std::uint32_t>(i * kWindowLength), probes[i]});
  }
  const auto payload = core::encode_payload(search);

  std::uint64_t request = 1;
  for (auto _ : state) {
    transport.send({.from = net::kClientNode,
                    .to = 0,
                    .type = core::kNodeSearch,
                    .request_id = request++,
                    .payload = payload});
    transport.run_until_idle();
  }
  state.SetLabel("blocks " + std::to_string(node.block_count()));
  state.SetItemsProcessed(state.iterations() * kSubqueries);
}
BENCHMARK(BM_NodeSearch);

}  // namespace

int main(int argc, char** argv) {
  mendel::bench::init_micro_bench(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
