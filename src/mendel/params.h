// Query parameters — paper Table I, plus the implementation knobs the
// paper leaves implicit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mendel::core {

// Leaf (bucket) capacity of every storage node's vp-tree: the one default
// for the client, in-process nodes and daemons initialised over the wire.
// Ranked hits do not depend on it (n-NN ties break on block identity); it
// only trades vantage evaluations against leaf-scan items. Chosen by a
// sweep over 32..1024 (docs/architecture.md, "Batched leaf scans").
inline constexpr std::size_t kDefaultBucketCapacity = 1024;

// Most NN-cache misses of one kNodeSearch that a storage node searches in
// one vp-tree walk. Results do not depend on it (each subquery's n-NN set
// is unique under the block-identity tie order); it trades the leaf-scan
// work the multi-probe kernels share across a batch against the pruning a
// shared visit order gives up. Chosen by a sweep (docs/architecture.md,
// "Multi-probe search").
inline constexpr std::size_t kSearchBatch = 32;

struct QueryParams {
  // --- Paper Table I ---------------------------------------------------
  // k: sliding-window step over the query (subqueries are block-length
  // windows taken every k residues; the *block* length is a cluster-wide
  // indexing property, not a per-query one).
  std::uint32_t k = 8;
  // n: nearest neighbors fetched per subquery per node.
  std::uint32_t n = 16;
  // i: percent-identity threshold in [0,1] for candidate blocks.
  double identity = 0.30;
  // c: consecutivity-score threshold in [0,1].
  double c_score = 0.40;
  // M: scoring matrix name ("BLOSUM62", "BLOSUM80", "PAM250", "DNA").
  std::string matrix = "BLOSUM62";
  // S: normalized anchor score (raw score / anchor length) required to
  // trigger gapped extension. Matrix-relative: the default suits BLOSUM62
  // (exact columns average ~5); for DNA (+2 per match) use ~1.0.
  double gapped_trigger = 2.5;
  // l: gapped-alignment band width (diagonals either side of the anchor).
  std::uint32_t band = 16;
  // E: expectation-value cutoff for reported alignments.
  double evalue = 10.0;

  // --- Implementation knobs --------------------------------------------
  // Branching tolerance of the vp-prefix traversal for query routing
  // (paper: "multiple groups can be selected ... if the path branches").
  double branch_epsilon = 10.0;
  // X-drop of the ungapped anchor extension at group entry points.
  int x_drop = 16;
  // Residues fetched either side of a seed for ungapped extension.
  std::uint32_t extension_margin = 128;
  // Cap on reported alignments.
  std::uint32_t max_hits = 50;
  // Cap on banded gapped extensions attempted per sequence bin (anchors
  // are taken best-first, so the cap cuts only redundant weak anchors).
  std::uint32_t max_gapped_per_bin = 8;
  // Attach the aligned subject residues to each reported hit (needed for
  // client-side pairwise rendering; costs extra reply bytes).
  bool include_subject_segment = false;
  // Minimum merged-seed span (residues) required before a seed run is
  // fetched and extended at the group entry. 0 keeps every n-NN candidate
  // (the paper's behaviour). Setting it just above the block length drops
  // isolated single-window noise seeds — true matches produce runs of
  // adjacent subquery windows on one diagonal — trading a little
  // low-similarity sensitivity for a large cut in fetch/extension work.
  std::uint32_t min_anchor_span = 0;

  template <class Io>
  void fields(Io& io) {
    io(k, n, identity, c_score, matrix, gapped_trigger, band, evalue,
       branch_epsilon, x_drop, extension_margin, max_hits, max_gapped_per_bin,
       min_anchor_span, include_subject_segment);
  }
};

}  // namespace mendel::core
