// Microbenchmarks for pipeline building blocks (google-benchmark):
// alignment kernels, SHA-1 dispersal, block creation, and codec overhead —
// the per-message / per-anchor costs behind the Figure 6 numbers. End-to-end
// throughput and latency are measured by bench/e2e.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/micro_main.h"
#include "src/align/banded.h"
#include "src/align/smith_waterman.h"
#include "src/align/ungapped.h"
#include "src/align/xdrop.h"
#include "src/hash/sha1.h"
#include "src/mendel/block.h"
#include "src/mendel/protocol.h"
#include "src/workload/generator.h"

namespace {

using namespace mendel;

seq::Sequence protein(std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  return workload::random_sequence(seq::Alphabet::kProtein, length, "p",
                                   rng);
}

void BM_UngappedExtension(benchmark::State& state) {
  Rng rng(1);
  const auto base = protein(static_cast<std::size_t>(state.range(0)), 2);
  const auto homolog =
      workload::mutate_to_similarity(base, 0.7, "h", rng);
  for (auto _ : state) {
    const auto hsp = align::extend_ungapped(
        base.codes(), homolog.codes(), base.size() / 2, base.size() / 2, 8,
        score::blosum62(), {16});
    benchmark::DoNotOptimize(hsp.score);
  }
}
BENCHMARK(BM_UngappedExtension)->Arg(500)->Arg(2000);

void BM_BandedGapped(benchmark::State& state) {
  Rng rng(3);
  const auto base = protein(1000, 4);
  const auto homolog = workload::mutate(base, {0.25, 0.02, 0.4}, "h", rng);
  const auto radius = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto a = align::banded_local_align(
        base.codes(), homolog.codes(), score::blosum62(),
        score::blosum62().default_gaps(), {0, radius});
    benchmark::DoNotOptimize(a.hsp.score);
  }
  state.SetLabel("band radius " + std::to_string(radius));
}
BENCHMARK(BM_BandedGapped)->Arg(4)->Arg(16)->Arg(64);

void BM_SmithWatermanFull(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = protein(n, 6);
  const auto homolog = workload::mutate(base, {0.25, 0.02, 0.4}, "h", rng);
  for (auto _ : state) {
    const auto a = align::smith_waterman(base.codes(), homolog.codes(),
                                         score::blosum62(),
                                         score::blosum62().default_gaps());
    benchmark::DoNotOptimize(a.hsp.score);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_SmithWatermanFull)->Arg(200)->Arg(500);

// Ablation: fixed-band DP (the paper's Table I parameter l) vs the
// adaptive X-drop DP Gapped BLAST uses. Same homologous pair, anchored at
// its centre.
void BM_XDropGapped(benchmark::State& state) {
  Rng rng(11);
  const auto base = protein(1000, 12);
  const auto homolog = workload::mutate(base, {0.25, 0.02, 0.4}, "h", rng);
  const int x = static_cast<int>(state.range(0));
  int score = 0;
  for (auto _ : state) {
    const auto hsp = align::xdrop_gapped_extend(
        base.codes(), homolog.codes(), 500, 500, score::blosum62(),
        score::blosum62().default_gaps(), {x});
    score = hsp.score;
    benchmark::DoNotOptimize(hsp.score);
  }
  state.SetLabel("x=" + std::to_string(x) + " score=" +
                 std::to_string(score));
}
BENCHMARK(BM_XDropGapped)->Arg(10)->Arg(40)->Arg(160);

void BM_Sha1Block(benchmark::State& state) {
  const auto s = protein(static_cast<std::size_t>(state.range(0)), 7);
  const std::vector<std::uint8_t> bytes(s.codes().begin(), s.codes().end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hashing::sha1_prefix64(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Sha1Block)->Arg(8)->Arg(64)->Arg(4096);

void BM_MakeBlocks(benchmark::State& state) {
  auto s = protein(static_cast<std::size_t>(state.range(0)), 8);
  s.set_id(1);
  for (auto _ : state) {
    const auto blocks = core::make_blocks(s, 8);
    benchmark::DoNotOptimize(blocks.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MakeBlocks)->Arg(1000)->Arg(10000);

void BM_ProtocolRoundTrip(benchmark::State& state) {
  core::NodeSearchResultPayload payload;
  for (int i = 0; i < 64; ++i) {
    core::Seed seed;
    seed.sequence = static_cast<std::uint32_t>(i);
    seed.subject_start = static_cast<std::uint32_t>(i * 13);
    seed.query_offset = static_cast<std::uint32_t>(i * 7);
    seed.length = 8;
    seed.identity = 0.8;
    seed.c_score = 0.7;
    payload.seeds.push_back(seed);
  }
  for (auto _ : state) {
    const auto bytes = core::encode_payload(payload);
    const auto decoded =
        core::decode_payload<core::NodeSearchResultPayload>(bytes);
    benchmark::DoNotOptimize(decoded.seeds.size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ProtocolRoundTrip);

void BM_ConsecutivityScore(benchmark::State& state) {
  Rng rng(9);
  const auto a = protein(8, 10);
  const auto b = workload::mutate_to_similarity(a, 0.75, "b", rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(score::consecutivity_score(
        a.codes(), b.codes(), score::blosum62()));
  }
}
BENCHMARK(BM_ConsecutivityScore);

}  // namespace

int main(int argc, char** argv) {
  mendel::bench::init_micro_bench(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
