// Banded local alignment with affine gaps.
//
// The gapped-extension stage of both the BLAST baseline and Mendel's query
// pipeline (paper §V-B: "The gapped extension considers all anchors from the
// same sequence within l diagonals in either direction"). The DP is
// restricted to diagonals within `band_radius` of `center_diag`; paths
// cannot leave the band, which bounds work at O(query_len * band_width)
// instead of O(m*n).
//
// With a band that covers the whole rectangle this is exactly
// smith_waterman() — the property test in tests/align_test.cpp pins that.
// A radius reaching past the rectangle is clamped to the smallest one that
// covers the same cells, so the DP never exceeds (m + 1) * (2 (m + n) + 1)
// cells whatever radius a request carries.
#pragma once

#include "src/align/alignment.h"
#include "src/scoring/matrix.h"

namespace mendel::align {

struct BandedParams {
  // Diagonal (s_pos - q_pos) at the band's center.
  std::ptrdiff_t center_diag = 0;
  // Paper Table I parameter l: how many diagonals either side of the center
  // the alignment may wander.
  std::size_t band_radius = 16;
};

// Dispatched entry point: runs the AVX2 row kernel when the active
// dispatch level supports it, the scalar reference otherwise. Both produce
// identical alignments (score, coordinates, CIGAR, column stats): the
// kernel computes every cell and traceback byte the reference does, dead
// cells at exactly kNegInf and ties broken the reference's way;
// tests/simd_kernel_test.cpp pins this, and MENDEL_CHECKED builds run the
// reference beside the kernel on every call and check the two agree.
GappedAlignment banded_local_align(seq::CodeSpan query, seq::CodeSpan subject,
                                   const score::ScoringMatrix& scores,
                                   score::GapPenalties gaps,
                                   const BandedParams& params);

// The scalar oracle: cell-at-a-time affine band DP. This defines the
// semantics; keep it boring.
GappedAlignment banded_local_align_reference(seq::CodeSpan query,
                                             seq::CodeSpan subject,
                                             const score::ScoringMatrix& scores,
                                             score::GapPenalties gaps,
                                             const BandedParams& params);

namespace detail {

// True when this binary carries the AVX2 row kernel (x86 with the
// MENDEL_SIMD option on). Defined in banded_simd.cpp.
bool banded_simd_compiled();

// The AVX2 row kernel; falls back to the reference when not compiled in.
// Callers normally go through banded_local_align(); the fuzz tests call
// this directly to pin kernel == reference.
GappedAlignment banded_local_align_simd(seq::CodeSpan query,
                                        seq::CodeSpan subject,
                                        const score::ScoringMatrix& scores,
                                        score::GapPenalties gaps,
                                        const BandedParams& params);

}  // namespace detail

}  // namespace mendel::align
