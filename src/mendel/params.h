// Query parameters — paper Table I, plus the implementation knobs the
// paper leaves implicit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/codec.h"

namespace mendel::core {

// Leaf (bucket) capacity of every storage node's vp-tree: the one default
// for the client, in-process nodes and daemons initialised over the wire.
// Ranked hits do not depend on it (n-NN ties break on block identity); it
// only trades vantage evaluations against leaf-scan items. Chosen by a
// sweep over 32..1024 (docs/architecture.md, "Batched leaf scans").
inline constexpr std::size_t kDefaultBucketCapacity = 1024;

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

  void encode(CodecWriter& writer) const {
    writer.u32(k);
    writer.u32(n);
    writer.f64(identity);
    writer.f64(c_score);
    writer.str(matrix);
    writer.f64(gapped_trigger);
    writer.u32(band);
    writer.f64(evalue);
    writer.f64(branch_epsilon);
    writer.i32(x_drop);
    writer.u32(extension_margin);
    writer.u32(max_hits);
    writer.u32(max_gapped_per_bin);
    writer.u32(min_anchor_span);
    writer.boolean(include_subject_segment);
  }

  static QueryParams decode(CodecReader& reader) {
    QueryParams p;
    p.k = reader.u32();
    p.n = reader.u32();
    p.identity = reader.f64();
    p.c_score = reader.f64();
    p.matrix = reader.str();
    p.gapped_trigger = reader.f64();
    p.band = reader.u32();
    p.evalue = reader.f64();
    p.branch_epsilon = reader.f64();
    p.x_drop = reader.i32();
    p.extension_margin = reader.u32();
    p.max_hits = reader.u32();
    p.max_gapped_per_bin = reader.u32();
    p.min_anchor_span = reader.u32();
    p.include_subject_segment = reader.boolean();
    return p;
  }
};

}  // namespace mendel::core
