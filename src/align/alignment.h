// Alignment result records shared by the BLAST baseline and the Mendel
// query pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sequence/sequence.h"

namespace mendel::align {

// High-scoring segment pair: an ungapped or gapped local alignment region.
// Coordinates are half-open [begin, end) offsets into the query and subject
// residue arrays.
struct Hsp {
  std::size_t q_begin = 0;
  std::size_t q_end = 0;
  std::size_t s_begin = 0;
  std::size_t s_end = 0;
  int score = 0;

  std::size_t q_len() const { return q_end - q_begin; }
  std::size_t s_len() const { return s_end - s_begin; }

  // Diagonal of the starting cell (paper §V-B: difference between subject
  // and query start positions). Gapped HSPs span several diagonals; this is
  // the anchor diagonal.
  std::ptrdiff_t diagonal() const {
    return static_cast<std::ptrdiff_t>(s_begin) -
           static_cast<std::ptrdiff_t>(q_begin);
  }

  bool operator==(const Hsp&) const = default;
};

// A gapped alignment with column statistics (filled by traceback).
struct GappedAlignment {
  Hsp hsp;
  std::size_t columns = 0;     // aligned columns incl. gap columns
  std::size_t identities = 0;  // exact residue matches
  std::size_t gap_columns = 0;

  // Compact CIGAR-style operations ("12M2D30M1I8M"): M = aligned pair,
  // I = gap in subject (insertion in query), D = gap in query.
  std::string cigar;

  double percent_identity() const {
    return columns == 0
               ? 0.0
               : static_cast<double>(identities) / static_cast<double>(columns);
  }

  bool operator==(const GappedAlignment&) const = default;
};

// Final ranked hit returned to clients (both Mendel and the baseline).
struct AlignmentHit {
  seq::SequenceId subject_id = seq::kInvalidSequenceId;
  std::string subject_name;
  GappedAlignment alignment;
  double bit_score = 0.0;
  double evalue = 0.0;
  // The aligned subject residues [hsp.s_begin, hsp.s_end). Filled only
  // when the query ran with QueryParams::include_subject_segment (clients
  // need it to render pairwise alignments without holding the database).
  std::vector<seq::Code> subject_segment;

  // Wire layout (src/common/codec.h), as carried in kQueryResult replies;
  // the size_t offsets and counts travel as u64.
  static_assert(sizeof(std::size_t) == 8);
  template <class Io>
  void fields(Io& io) {
    io(subject_id, subject_name, alignment.hsp.q_begin, alignment.hsp.q_end,
       alignment.hsp.s_begin, alignment.hsp.s_end, alignment.hsp.score,
       alignment.columns, alignment.identities, alignment.gap_columns,
       alignment.cigar, bit_score, evalue, subject_segment);
  }
};

}  // namespace mendel::align
