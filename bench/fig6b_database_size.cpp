// Figure 6b reproduction: query turnaround vs database size.
//
// The paper fixes query length at 1000 residues and grows the database,
// reporting "nearly constant average turnaround times" for Mendel (the
// DHT absorbs volume) while BLAST degrades as the database grows and
// falls off a cliff once it no longer fits in memory.
//
// Here: databases swept geometrically; each size gets a fresh 10x5 Mendel
// cluster and a fresh BLAST index over the same store; 1000-residue
// queries sampled from each database.
#include "bench/bench_common.h"
#include "bench/bench_setup.h"
#include "src/common/stats.h"
#include "src/common/stopwatch.h"
#include "src/vptree/block_store.h"

namespace {

// --oocore: out-of-core sweep past the previous in-memory ceiling. DNA
// databases (2-bit packed rows) swept to 4x the largest protein point,
// each size measured in three arena configurations on a 2x2 cluster:
// unpacked all-resident (the pre-packing layout), packed all-resident,
// and packed with a clamped resident budget so leaf scans continuously
// pin/fault/evict through the mmap block store. Residency is a memory
// policy, not a results policy: ranked hits are identical across the
// three configurations (the parity tests assert it), packed bytes run
// ~4x under unpacked, and the spilled column pays the fault/evict cost
// of running with the working set over the resident budget.
int run_oocore(const mendel::bench::BenchArgs& args) {
  using namespace mendel;
  if (!vpt::BlockStore::supported()) {
    std::cout << "oocore sweep skipped: no mmap block store on this host\n";
    return 0;
  }
  const std::size_t queries_per_size = args.quick ? 2 : 3;
  std::vector<std::size_t> sizes = {800000, 1600000, 3200000};
  if (args.quick) sizes = {200000, 400000};

  TextTable table(
      "Out-of-core sweep: DNA database, mean turnaround (seconds) and "
      "arena footprint per configuration");
  table.set_header({"database residues", "unpacked resident", "packed resident",
                    "packed spilled", "unpacked bytes", "packed bytes",
                    "spill resident bytes", "spill evictions"});

  struct Config {
    const char* name;
    bool packing;
    bool spill;
  };
  // Small spill segments so the per-node LRU budget bites even though a
  // bench-sized arena is far smaller than a production shard.
  constexpr std::size_t kSpillSegment = 64 * 1024;
  const Config configs[] = {
      {"unpacked", false, false},
      {"packed", true, false},
      {"spilled", true, true},
  };

  for (const std::size_t size : sizes) {
    const auto store =
        bench::make_database(size, args.seed, seq::Alphabet::kDna);
    workload::QuerySetSpec query_spec;
    query_spec.count = queries_per_size;
    query_spec.length = 1000;
    query_spec.noise = {0.05, 0.0, 0.0};
    query_spec.seed = args.seed ^ size;
    const auto queries = workload::sample_queries(store, query_spec);

    // Out-of-core operating point: roughly half of each node's packed
    // arena resident (a stride-1 window per residue, ~4-byte packed rows,
    // residues split over 4 nodes puts per-node packed bytes near `size`),
    // floored at the store's minimum resident set.
    const std::size_t spill_budget = std::max<std::size_t>(
        vpt::BlockStore::kMinResidentSegments * kSpillSegment, size / 2);

    double mean_turnaround[3] = {0.0, 0.0, 0.0};
    std::int64_t arena_bytes[3] = {0, 0, 0};
    std::int64_t spill_resident = 0;
    std::uint64_t spill_evictions = 0;
    for (std::size_t c = 0; c < 3; ++c) {
      auto options = bench::cluster_options(2, 2);
      options.indexing.window_length = 12;
      options.runtime.node.arena_packing = configs[c].packing;
      options.runtime.node.arena_resident_budget =
          configs[c].spill ? spill_budget : 0;
      options.runtime.node.arena_segment_bytes =
          configs[c].spill ? kSpillSegment : 0;
      core::Client client(options);
      client.index(store);

      RunningStats turnaround;
      for (const auto& query : queries) {
        const auto outcome = client.query(query, bench::dna_bench_params());
        turnaround.add(outcome.turnaround);
      }
      mean_turnaround[c] = turnaround.mean();
      const auto snapshot = client.metrics();
      const auto packed = snapshot.gauge("arena.packed_bytes");
      arena_bytes[c] =
          packed > 0 ? packed : snapshot.gauge("arena.resident_bytes");
      if (configs[c].spill) {
        spill_resident = snapshot.gauge("arena.resident_bytes");
        spill_evictions = snapshot.counter("blockstore.evictions");
      }
    }
    table.add_row({TextTable::num(store.total_residues()),
                   TextTable::num(mean_turnaround[0], 4),
                   TextTable::num(mean_turnaround[1], 4),
                   TextTable::num(mean_turnaround[2], 4),
                   TextTable::num(static_cast<std::size_t>(arena_bytes[0])),
                   TextTable::num(static_cast<std::size_t>(arena_bytes[1])),
                   TextTable::num(static_cast<std::size_t>(spill_resident)),
                   TextTable::num(static_cast<std::size_t>(spill_evictions))});
  }
  bench::emit(table, args);
  bench::paper_shape(
      "out-of-core Mendel extends the Fig 6b curve past the in-memory "
      "ceiling: packed rows cost ~4x less memory than unpacked, and a "
      "clamped resident budget changes residency (and adds fault cost), "
      "not results");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mendel;
  const auto args = bench::parse_args(argc, argv);
  if (args.oocore) return run_oocore(args);

  const std::size_t queries_per_size = args.quick ? 2 : 3;
  std::vector<std::size_t> sizes = {50000, 100000, 200000, 400000, 800000};
  if (args.quick) sizes = {50000, 100000, 200000};

  TextTable table(
      "Figure 6b: mean turnaround vs database size, 1000-residue queries "
      "(seconds)");
  table.set_header({"database residues", "Mendel (simulated 50-node)",
                    "BLAST baseline (1 machine)", "blocks indexed"});

  for (const std::size_t size : sizes) {
    const auto store = bench::make_database(size, args.seed);

    core::Client client(bench::cluster_options());
    const auto report = client.index(store);
    blast::BlastEngine blast_engine(&store, &score::blosum62());
    blast_engine.build();

    workload::QuerySetSpec query_spec;
    query_spec.count = queries_per_size;
    query_spec.length = 1000;
    query_spec.noise = {0.05, 0.0, 0.0};
    query_spec.seed = args.seed ^ size;
    const auto queries = workload::sample_queries(store, query_spec);

    RunningStats mendel_time, blast_time;
    for (const auto& query : queries) {
      const auto outcome = client.query(query, bench::bench_params());
      mendel_time.add(outcome.turnaround);
      Stopwatch watch;
      blast_engine.search(query);
      blast_time.add(watch.seconds());
    }
    table.add_row({TextTable::num(store.total_residues()),
                   TextTable::num(mendel_time.mean(), 4),
                   TextTable::num(blast_time.mean(), 4),
                   TextTable::num(static_cast<std::size_t>(report.blocks))});
  }
  bench::emit(table, args);
  bench::paper_shape(
      "database size has much less impact on Mendel than on BLAST: "
      "Mendel's turnaround stays near-constant (hash-table-like) while "
      "BLAST grows with the database (Fig 6b)");
  return 0;
}
