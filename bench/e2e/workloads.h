// The benchmark's workloads. Each one loads a different layer of the
// system (see README.md for the why of each):
//
//   search-fresh    never-repeating protein queries: n-NN search dominates
//   extend-cached   recurring long probes on a family-dense database: the
//                   NN cache absorbs search, fetch + extension dominate
//   socket-cached   recurring short probes over Unix-domain sockets to
//                   in-process daemons, open loop: codec and wire work
//   dna-ingest-sim  DNA ingest rounds alternating with fresh queries on a
//                   simulated 50-node cluster: indexing and 2-bit kernels
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/stats.h"

namespace mendel::bench {

// The seed whose verification digests are pinned.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  // Length of the measured window (after warm-up).
  double seconds = 10.0;
  // Adds the traced pass; the result then carries per-layer metrics.
  bool trace = false;
  // Shrinks warm-up and the traced pass for the smoke run.
  bool smoke = false;
  // Where socket files go (relative paths keep them under sun_path's 108
  // bytes).
  std::string scratch_dir = ".";
};

const std::vector<std::string>& workload_names();

// Runs one workload: set-up, warm-up, the measured untraced pass, the
// correctness gate, and (with Options::trace) the traced pass. Throws
// InvalidArgument for an unknown workload name.
RunResult run_workload(const Options& options);

}  // namespace mendel::bench
