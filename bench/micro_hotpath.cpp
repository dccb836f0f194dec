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
#include <bit>
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
#include "src/scoring/quantized.h"
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

std::vector<vpt::Window> make_windows(
    std::size_t count, std::uint64_t seed,
    seq::Alphabet alphabet = seq::Alphabet::kProtein) {
  Rng rng(seed);
  std::vector<vpt::Window> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s =
        workload::random_sequence(alphabet, kWindowLength, "w", rng);
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

seq::SequenceStore make_store(
    std::size_t sequences, std::uint64_t seed,
    seq::Alphabet alphabet = seq::Alphabet::kProtein) {
  workload::DatabaseSpec spec;
  spec.alphabet = alphabet;
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

// Top-16 lists of a batch of probes, kept the way a node's leaf scan
// keeps them: scaled integer thresholds, converted to doubles on admission.
struct TopLists {
  static constexpr std::size_t kNeighbors = 16;
  const score::QuantizedDistance* q;
  std::vector<std::vector<double>> best;
  std::vector<std::int64_t> qthresh;

  TopLists(const score::QuantizedDistance* quantized, std::size_t probes)
      : q(quantized),
        best(probes),
        qthresh(probes, std::numeric_limits<std::int64_t>::max()) {
    for (auto& b : best) b.reserve(kNeighbors + 1);
  }
  void admit(std::size_t p, std::int64_t qd) {
    if (qd > qthresh[p]) return;
    auto& b = best[p];
    const double d = q->to_double(qd);
    b.insert(std::upper_bound(b.begin(), b.end(), d), d);
    if (b.size() > kNeighbors) b.pop_back();
    if (b.size() == kNeighbors) qthresh[p] = q->threshold(b.back());
  }
};

// The top-16 scan of `count` arena rows for a batch of probes, the way a
// node's leaf scan runs it: 256-row chunks through the multi-probe kernel
// (QKernelTable::probes_batch / probes_batch_packed), admission by walking
// each probe's pass mask, and QProbe::scan for any probe the kernel
// declines.
void scan_batch(const vpt::WindowArena& arena,
                const std::vector<std::uint32_t>& slots,
                const std::vector<const score::QProbe*>& probes,
                TopLists& top) {
  constexpr std::size_t kChunk = 256;
  const auto& kernels = score::qkernels();
  std::vector<std::uint64_t> pass(probes.size() * kChunk / 64);
  std::vector<std::uint8_t> dist(probes.size() * kChunk);
  const score::QScanOut out{pass.data(), dist.data(), kChunk};
  std::int64_t qdists[kChunk];
  for (std::size_t offset = 0; offset < slots.size(); offset += kChunk) {
    const std::size_t run = std::min(slots.size() - offset, kChunk);
    const std::uint32_t* chunk = slots.data() + offset;
    const std::uint64_t served =
        arena.packed()
            ? kernels.probes_batch_packed(
                  probes.data(), top.qthresh.data(), probes.size(),
                  arena.base(), arena.stride(), arena.packed_bits(), chunk,
                  run, out)
            : kernels.probes_batch(probes.data(), top.qthresh.data(),
                                   probes.size(), arena.base(),
                                   arena.stride(), chunk, run, out);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      if ((served >> p) & 1) {
        for (std::size_t w = 0; w * 64 < run; ++w) {
          for (std::uint64_t bits = pass[p * kChunk / 64 + w]; bits != 0;
               bits &= bits - 1) {
            const std::size_t j =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            top.admit(p, dist[p * kChunk + j]);
          }
        }
        continue;
      }
      if (arena.packed()) {
        probes[p]->scan_packed(arena.base(), arena.stride(),
                               arena.packed_bits(), chunk, run,
                               top.qthresh[p], qdists);
      } else {
        probes[p]->scan(arena.base(), arena.stride(), chunk, run,
                        top.qthresh[p], qdists);
      }
      for (std::size_t j = 0; j < run; ++j) top.admit(p, qdists[j]);
    }
  }
}

// Leaf-scan rows and probe windows for one alphabet's bench arena.
struct ScanFixture {
  vpt::WindowArena arena;
  std::vector<std::uint32_t> slots;
  std::vector<vpt::Window> probes;
  const score::QuantizedDistance* q;

  ScanFixture(seq::Alphabet alphabet, std::size_t count) {
    std::vector<vpt::Window> rows;
    if (alphabet == seq::Alphabet::kDna) {
      Rng rng(111);
      auto dna_window = [&rng] {
        vpt::Window w(kWindowLength);
        for (auto& c : w) c = static_cast<seq::Code>(rng.below(4));
        return w;
      };
      for (std::size_t i = 0; i < count; ++i) rows.push_back(dna_window());
      for (std::size_t i = 0; i < 64; ++i) probes.push_back(dna_window());
      arena.configure({.packed_bits = 2});
    } else {
      rows = make_windows(count, 103);
      probes = make_windows(64, 104);
    }
    for (std::size_t i = 0; i < count; ++i) {
      arena.append(seq::CodeSpan(rows[i]));
      slots.push_back(static_cast<std::uint32_t>(i));
    }
    q = score::default_distance(alphabet).quantized();
  }
};

// `batch` probes per iteration, each with its own top-16 list over the
// same 4,096 rows; items are probe-row pairs.
void run_leaf_scan(benchmark::State& state, seq::Alphabet alphabet,
                   std::size_t batch) {
  const ScanFixture fix(alphabet, static_cast<std::size_t>(state.range(0)));
  if (fix.q == nullptr) {
    state.SkipWithError("distance matrix has no quantized twin");
    return;
  }
  std::size_t p = 0;
  for (auto _ : state) {
    std::vector<score::QProbe> owned;
    owned.reserve(batch);
    std::vector<const score::QProbe*> probes;
    for (std::size_t b = 0; b < batch; ++b) {
      const auto& probe = fix.probes[p++ % fix.probes.size()];
      probes.push_back(&owned.emplace_back(*fix.q, probe.data(), probe.size()));
    }
    TopLists top(fix.q, batch);
    scan_batch(fix.arena, fix.slots, probes, top);
    benchmark::DoNotOptimize(top.best.data());
  }
  state.SetLabel("row bytes " + std::to_string(fix.arena.row_bytes()));
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(batch));
}

// One probe at a time through the node's leaf-scan path (the shuffle
// kernel on AVX2). The BM_LeafScan/BM_LeafScanBatched ratio is the
// isolated kernel win.
void BM_LeafScanBatched(benchmark::State& state) {
  run_leaf_scan(state, seq::Alphabet::kProtein, 1);
}
BENCHMARK(BM_LeafScanBatched)->Arg(4096);

// The packed twin: DNA windows stored at 2 bits per residue, scored
// without unpacking (the XOR and popcount kernel on AVX2) at 1/4 the
// memory of BM_LeafScanBatched.
void BM_LeafScanBatchedPacked(benchmark::State& state) {
  run_leaf_scan(state, seq::Alphabet::kDna, 1);
}
BENCHMARK(BM_LeafScanBatchedPacked)->Arg(4096);

// Batches of probes over the same rows, as one vp-tree walk scores a
// leaf for every subquery it carries: the second argument is the batch
// size, and items/s counts probe-row pairs.
void BM_LeafScanMultiProbe(benchmark::State& state) {
  run_leaf_scan(state, seq::Alphabet::kProtein,
                static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_LeafScanMultiProbe)
    ->Args({4096, 1})->Args({4096, 8})->Args({4096, 32});

void BM_LeafScanMultiProbePacked(benchmark::State& state) {
  run_leaf_scan(state, seq::Alphabet::kDna,
                static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_LeafScanMultiProbePacked)
    ->Args({4096, 1})->Args({4096, 8})->Args({4096, 32});

// --- 2b. banded gapped extension ----------------------------------------

// The gapped-extension kernel on realistic anchor extensions: ~70%
// identity pairs of `length` residues, centered band. Counts alignments per
// second through the dispatched entry point (force scalar via
// MENDEL_SIMD_LEVEL to record the baseline side); `cells_per_second`
// counts DP band cells, m * (2 * radius + 1) per alignment.
void run_banded_extend(benchmark::State& state, const score::ScoringMatrix& scores,
                       std::size_t length, std::size_t radius) {
  Rng rng(110);
  constexpr std::size_t kPairs = 64;
  std::vector<std::pair<seq::Sequence, seq::Sequence>> pairs;
  pairs.reserve(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    auto a = workload::random_sequence(scores.alphabet(), length, "a", rng);
    auto b = workload::mutate_to_similarity(a, 0.7, "b", rng);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  align::BandedParams params;
  params.band_radius = radius;
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
  state.counters["cells_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(length * (2 * radius + 1)),
      benchmark::Counter::kIsRate);
}

// 400-residue protein pairs; the argument is the band radius.
void BM_BandedExtend(benchmark::State& state) {
  run_banded_extend(state, score::blosum62(), 400,
                    static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_BandedExtend)->Arg(16)->Arg(64);

// Protein pairs at the default radius 16; the argument is the length
// (the pipeline extends queries of a few hundred to ~1,000 residues).
void BM_BandedExtendLength(benchmark::State& state) {
  run_banded_extend(state, score::blosum62(),
                    static_cast<std::size_t>(state.range(0)), 16);
}
BENCHMARK(BM_BandedExtendLength)->Arg(300)->Arg(900);

// 400-residue DNA pairs under the DNA matrix, as dna-ingest-sim extends;
// the argument is the band radius.
void BM_BandedExtendDna(benchmark::State& state) {
  static const score::ScoringMatrix dna = score::dna_matrix();
  run_banded_extend(state, dna, 400, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_BandedExtendDna)->Arg(16)->Arg(64);

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
// through the same wire messages the indexer sends. The DNA fixture's node
// stores its windows at 2 bits per residue (the default arena packing).
struct NodeFixture {
  seq::Alphabet alphabet;
  cluster::Topology topology{{.num_groups = 1, .nodes_per_group = 1}};
  vpt::VpPrefixTree prefix_tree;
  seq::SequenceStore store;
  std::vector<core::Block> blocks;
  std::vector<std::vector<std::uint8_t>> insert_payloads;

  explicit NodeFixture(seq::Alphabet a)
      : alphabet(a),
        prefix_tree(&score::default_distance(a), {.cutoff_depth = 4}),
        store(make_store(96, 107, a)) {
    prefix_tree.build(make_windows(2000, 108, a));
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

  core::StorageNodeConfig node_config(obs::MetricsRegistry& registry) const {
    core::StorageNodeConfig config;
    config.topology = &topology;
    config.prefix_tree = &prefix_tree;
    config.distance = &score::default_distance(alphabet);
    config.metrics = &registry;
    config.alphabet = alphabet;
    // The subquery NN cache would otherwise answer every repeated probe
    // after the first iteration and the bench would measure cache lookups,
    // not searches (bench/e2e's extend-cached and socket-cached workloads
    // measure the cache's hits).
    config.node.nn_cache_capacity = 0;
    return config;
  }

  static const NodeFixture& instance(
      seq::Alphabet alphabet = seq::Alphabet::kProtein) {
    if (alphabet == seq::Alphabet::kDna) {
      static const NodeFixture dna(seq::Alphabet::kDna);
      return dna;
    }
    static const NodeFixture protein(seq::Alphabet::kProtein);
    return protein;
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
  obs::MetricsRegistry registry;
  for (auto _ : state) {
    net::SimTransport transport(quiet_cost());
    core::StorageNode node(0, fix.node_config(registry));
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

// A loaded node behind a simulated transport (tracing off), so the bench
// measures the handler as it runs in production: histogram records are
// part of the hot path budget.
struct SearchNode {
  net::SimTransport transport{quiet_cost()};
  obs::MetricsRegistry registry;
  core::StorageNode node;
  net::FunctionActor sink{[](const net::Message&, net::Context&) {}};

  explicit SearchNode(const NodeFixture& fix)
      : node(0, fix.node_config(registry)) {
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

  static SearchNode& instance(seq::Alphabet alphabet) {
    if (alphabet == seq::Alphabet::kDna) {
      static SearchNode dna(NodeFixture::instance(seq::Alphabet::kDna));
      return dna;
    }
    static SearchNode protein(NodeFixture::instance(seq::Alphabet::kProtein));
    return protein;
  }
};

// One full on_node_search handler per iteration — payload decode, the
// subqueries' bounded n-NN with radius cap, identity + c-score filters,
// reply encode — over 64 subqueries in one message, measured per subquery.
void run_node_search(benchmark::State& state, seq::Alphabet alphabet,
                     const core::QueryParams& params) {
  const auto& fix = NodeFixture::instance(alphabet);
  SearchNode& search_node = SearchNode::instance(alphabet);
  constexpr std::size_t kSubqueries = 64;
  const auto probes = make_probes(fix.store, kSubqueries, 109);
  core::NodeSearchPayload search;
  search.params = params;
  search.params.k = kWindowLength;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    search.subqueries.push_back(
        {static_cast<std::uint32_t>(i * kWindowLength), probes[i]});
  }
  const auto payload = core::encode_payload(search);

  std::uint64_t request = 1;
  for (auto _ : state) {
    search_node.transport.send({.from = net::kClientNode,
                                .to = 0,
                                .type = core::kNodeSearch,
                                .request_id = request++,
                                .payload = payload});
    search_node.transport.run_until_idle();
  }
  state.SetLabel("blocks " + std::to_string(search_node.node.block_count()));
  state.SetItemsProcessed(state.iterations() * kSubqueries);
}

// The acceptance kernel: protein windows under the default parameters.
void BM_NodeSearch(benchmark::State& state) {
  run_node_search(state, seq::Alphabet::kProtein, core::QueryParams{});
}
BENCHMARK(BM_NodeSearch);

// Its DNA twin: 2-bit packed rows and the Hamming metric, with the DNA
// identity threshold of the end-to-end workloads.
void BM_NodeSearchDna(benchmark::State& state) {
  core::QueryParams params;
  params.matrix = "DNA";
  params.identity = 0.6;
  run_node_search(state, seq::Alphabet::kDna, params);
}
BENCHMARK(BM_NodeSearchDna);

}  // namespace

int main(int argc, char** argv) {
  mendel::bench::init_micro_bench(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
