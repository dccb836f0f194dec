// AVX2 row kernel for the banded affine-gap local aligner.
//
// One vector pass per DP row computes M, Ix and Iy for 8 band cells at a
// time, writes their packed traceback bytes and keeps the row maximum.
// M and Ix depend only on the previous row. Iy depends on the cell to its
// left in the same row, but within a row it is a max-plus prefix scan:
//
//   Iy[b] = max over k < b of (M[k] - open - (b - 1 - k) * extend),
//
// which the kernel builds inside each vector with three log-step lane
// shifts (1, 2, 4 lanes, decaying by 1, 2, 4 extends) and carries across
// vectors as the previous vector's last Iy. Every value is clamped from
// below at kNegInf, so a dead cell stays *exactly* kNegInf and every stored
// value and traceback bit matches the scalar reference cell for cell;
// ties break the reference's way (extension wins an Iy or Ix tie, M takes
// its sources in m, ix, iy order on strictly greater). Cells outside the
// subject, and lanes past the band, are masked dead.
//
// The best cell is the reference's first occurrence in (row, band index)
// order: a row is searched for its first lane holding the row maximum only
// when that maximum beats the best so far.
//
// The band never moves more than one subject position per query row, so
// the previous row's cell (q-1, s-1) sits at the same band index b and
// (q-1, s) at b+1: one aligned and one unaligned load per vector. A
// zero-padded subject copy keeps the per-lane code loads in bounds for
// rows whose band hangs off either end of the subject.
#include <algorithm>
#include <memory>
#include <vector>

#include "src/align/banded.h"
#include "src/align/banded_detail.h"
#include "src/common/simd.h"

#if defined(MENDEL_SIMD_X86)
#include <immintrin.h>
#endif

namespace mendel::align::detail {

bool banded_simd_compiled() {
#if defined(MENDEL_SIMD_X86)
  return true;
#else
  return false;
#endif
}

#if !defined(MENDEL_SIMD_X86)

GappedAlignment banded_local_align_simd(seq::CodeSpan query,
                                        seq::CodeSpan subject,
                                        const score::ScoringMatrix& scores,
                                        score::GapPenalties gaps,
                                        const BandedParams& params) {
  return banded_local_align_reference(query, subject, scores, gaps, params);
}

#else

namespace {

// Every lane set to lane 7 of v.
__attribute__((target("avx2"))) inline __m256i last_lane(__m256i v) {
  return _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(7));
}

__attribute__((target("avx2"))) GappedAlignment banded_avx2(
    seq::CodeSpan query, seq::CodeSpan subject,
    const score::ScoringMatrix& scores, int open, int extend,
    std::ptrdiff_t center_diag, std::ptrdiff_t radius) {
  const std::size_t m = query.size();
  const std::size_t n = subject.size();
  const std::size_t width = static_cast<std::size_t>(2 * radius + 1);
  const std::size_t padded = (width + 7) / 8 * 8;

  // Six aligned state rows (M, Ix, Iy of the previous and the current DP
  // row), each one vector past `padded` for the Ix source lane b + 1;
  // every lane not holding a live cell holds exact kNegInf.
  struct alignas(32) Lanes {
    int lane[8];
  };
  const std::size_t row_vectors = padded / 8 + 1;
  std::vector<Lanes> rows(6 * row_vectors, Lanes{{kNegInf, kNegInf, kNegInf,
                                                  kNegInf, kNegInf, kNegInf,
                                                  kNegInf, kNegInf}});
  int* prev_m = rows.front().lane;
  int* prev_ix = prev_m + 8 * row_vectors;
  int* prev_iy = prev_ix + 8 * row_vectors;
  int* curr_m = prev_iy + 8 * row_vectors;
  int* curr_ix = curr_m + 8 * row_vectors;
  int* curr_iy = curr_ix + 8 * row_vectors;
  // Every traceback byte of rows 1..m is written by the pass (8 per
  // vector; a row's lanes past `width` spill into the next row's start,
  // which that row then overwrites, and into the tail slack). Row 0 is
  // never read, so nothing is zero-filled.
  const std::unique_ptr<std::uint8_t[]> tb(
      new std::uint8_t[(m + 1) * width + 8]);

  // Traceback bits each lane may carry: lane 0 has no Iy source and lane
  // width - 1 no Ix source in the reference, and lanes past the band none.
  std::vector<int> keep_bits(padded, 0);
  std::fill(keep_bits.begin(),
            keep_bits.begin() + static_cast<std::ptrdiff_t>(width), 0x3F);
  keep_bits[0] &= ~(0x3 << 4);
  keep_bits[width - 1] &= ~(0x3 << 2);

  // Zero-padded subject: row q lane b reads code spad[q - 1 + b] for
  // subject position s - 1 = (center - radius) + (q - 1 + b). Lanes outside
  // the subject read pad zeros and are masked dead.
  const std::ptrdiff_t offset = center_diag - radius;
  std::vector<seq::Code> spad(m + padded + 8, 0);
  {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -offset);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(spad.size()),
        static_cast<std::ptrdiff_t>(n) - offset);
    for (std::ptrdiff_t j = lo; j < hi; ++j) {
      spad[static_cast<std::size_t>(j)] =
          subject[static_cast<std::size_t>(offset + j)];
    }
  }

  const __m256i neginf = _mm256_set1_epi32(kNegInf);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i open_v = _mm256_set1_epi32(open);
  const __m256i ext1 = _mm256_set1_epi32(extend);
  const __m256i ext2 = _mm256_set1_epi32(2 * extend);
  const __m256i ext4 = _mm256_set1_epi32(4 * extend);
  // Decay of the carried Iy at lane j: (j + 1) extends.
  const __m256i carry_decay = _mm256_mullo_epi32(
      _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8), ext1);
  const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  // Rotations taking lane j from lane j - 1 and from lane j - 2.
  const __m256i up1 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  const __m256i up2 = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
  const __m256i eight = _mm256_set1_epi32(8);
  const __m256i from_m_ix = _mm256_set1_epi32(kFromM << 2);
  const __m256i from_ix_ix = _mm256_set1_epi32(kFromIx << 2);
  const __m256i from_m_iy = _mm256_set1_epi32(kFromM << 4);
  const __m256i from_iy_iy = _mm256_set1_epi32(kFromIy << 4);
  const __m256i from_m_v = _mm256_set1_epi32(kFromM);
  const __m256i from_ix_v = _mm256_set1_epi32(kFromIx);
  const __m256i from_iy_v = _mm256_set1_epi32(kFromIy);
  // Byte 0 of each int lane to bytes 0-3 of its 128-bit half, then the two
  // halves' first dwords together: 8 lanes -> 8 traceback bytes.
  const __m256i pack_bytes = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i pack_halves = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);

  int best = 0;
  std::size_t best_q = 0;
  std::ptrdiff_t best_s = 0;
  __m256i best_v = zero;

  for (std::size_t q = 1; q <= m; ++q) {
    const std::ptrdiff_t s_lo =
        static_cast<std::ptrdiff_t>(q) + center_diag - radius;
    // Live lanes hold a cell of the band and the subject: band indices
    // [max(0, 1 - s_lo), min(width - 1, n - s_lo)].
    const auto live_lo = static_cast<int>(
        std::max<std::ptrdiff_t>(-1, -s_lo));  // first live lane - 1
    const auto live_hi = static_cast<int>(std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(width), static_cast<std::ptrdiff_t>(n) -
                                                s_lo + 1));  // last + 1
    const __m256i live_lo_v = _mm256_set1_epi32(live_lo);
    const __m256i live_hi_v = _mm256_set1_epi32(live_hi);
    const int* score_row = scores.row(query[q - 1]);
    const seq::Code* row_codes = spad.data() + (q - 1);
    std::uint8_t* tb_row = tb.get() + q * width;

    __m256i lane = lane_index;
    // The previous vector's M - open rotated up one lane (so its last
    // lane sits in lane 0), and its Iy.
    __m256i left_open = neginf;
    __m256i left_iy = neginf;
    __m256i row_max = neginf;
    for (std::size_t b = 0; b < padded; b += 8) {
      const __m256i live =
          _mm256_and_si256(_mm256_cmpgt_epi32(lane, live_lo_v),
                           _mm256_cmpgt_epi32(live_hi_v, lane));
      lane = _mm256_add_epi32(lane, eight);

      // (q-1, s-1) is at band index b, (q-1, s) at b + 1.
      const __m256i diag_m =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(prev_m + b));
      const __m256i diag_ix =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(prev_ix + b));
      const __m256i diag_iy =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(prev_iy + b));
      const __m256i up_m =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev_m + b + 1));
      const __m256i up_ix = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(prev_ix + b + 1));

      // Ix: open from up.m or extend from up.ix; the max with kNegInf pins
      // dead inputs at exactly kNegInf (kNegInf - open > INT_MIN, no wrap).
      const __m256i ix_open =
          _mm256_max_epi32(_mm256_sub_epi32(up_m, open_v), neginf);
      const __m256i ix_ext =
          _mm256_max_epi32(_mm256_sub_epi32(up_ix, ext1), neginf);
      const __m256i ix = _mm256_blendv_epi8(
          neginf, _mm256_max_epi32(ix_ext, ix_open), live);
      // Reference rule: ix_ext >= ix_open takes the extension.
      const __m256i ix_bits = _mm256_blendv_epi8(
          from_ix_ix, from_m_ix, _mm256_cmpgt_epi32(ix_open, ix_ext));

      // M: best of {0, diag.m, diag.ix, diag.iy} with the reference's
      // strictly-greater source chain (m, then ix, then iy).
      __m256i bp = _mm256_max_epi32(diag_m, zero);
      __m256i src =
          _mm256_and_si256(_mm256_cmpgt_epi32(diag_m, zero), from_m_v);
      const __m256i take_ix = _mm256_cmpgt_epi32(diag_ix, bp);
      bp = _mm256_max_epi32(bp, diag_ix);
      src = _mm256_blendv_epi8(src, from_ix_v, take_ix);
      const __m256i take_iy = _mm256_cmpgt_epi32(diag_iy, bp);
      bp = _mm256_max_epi32(bp, diag_iy);
      src = _mm256_blendv_epi8(src, from_iy_v, take_iy);

      const __m256i codes = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row_codes + b)));
      const __m256i sub = _mm256_i32gather_epi32(score_row, codes, 4);
      const __m256i mm = _mm256_add_epi32(bp, sub);
      const __m256i alive =
          _mm256_and_si256(_mm256_cmpgt_epi32(mm, zero), live);
      const __m256i m_v = _mm256_blendv_epi8(neginf, mm, alive);
      src = _mm256_and_si256(src, alive);  // dead M keeps kStop bits

      // Iy: `from_left[j]` = M[b + j - 1] - open opens a gap, and the
      // decayed inclusive prefix max of from_left extends it; the carry
      // brings in everything left of this vector. Lanes move up by
      // rotations, with the wrapped low lanes blended over.
      const __m256i m_open =
          _mm256_max_epi32(_mm256_sub_epi32(m_v, open_v), neginf);
      const __m256i m_open_up = _mm256_permutevar8x32_epi32(m_open, up1);
      const __m256i from_left = _mm256_blend_epi32(m_open_up, left_open, 0x01);
      left_open = m_open_up;
      __m256i iy = from_left;
      iy = _mm256_max_epi32(
          iy, _mm256_sub_epi32(
                  _mm256_blend_epi32(_mm256_permutevar8x32_epi32(iy, up1),
                                     neginf, 0x01),
                  ext1));
      iy = _mm256_max_epi32(
          iy, _mm256_sub_epi32(
                  _mm256_blend_epi32(_mm256_permutevar8x32_epi32(iy, up2),
                                     neginf, 0x03),
                  ext2));
      iy = _mm256_max_epi32(
          iy, _mm256_sub_epi32(_mm256_permute2x128_si256(neginf, iy, 0x21),
                               ext4));
      const __m256i carry = last_lane(left_iy);
      iy = _mm256_max_epi32(iy, _mm256_sub_epi32(carry, carry_decay));
      // Reference rule: iy_ext >= iy_open takes the extension, where
      // iy_ext is the left lane's Iy less one extend.
      const __m256i iy_left = _mm256_blend_epi32(
          _mm256_permutevar8x32_epi32(iy, up1), carry, 0x01);
      const __m256i iy_ext =
          _mm256_max_epi32(_mm256_sub_epi32(iy_left, ext1), neginf);
      const __m256i iy_bits = _mm256_blendv_epi8(
          from_iy_iy, from_m_iy, _mm256_cmpgt_epi32(from_left, iy_ext));
      left_iy = iy;

      _mm256_store_si256(reinterpret_cast<__m256i*>(curr_m + b), m_v);
      _mm256_store_si256(reinterpret_cast<__m256i*>(curr_ix + b), ix);
      _mm256_store_si256(reinterpret_cast<__m256i*>(curr_iy + b),
                         _mm256_blendv_epi8(neginf, iy, live));
      row_max = _mm256_max_epi32(row_max, m_v);

      const __m256i keep = _mm256_and_si256(
          live, _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(keep_bits.data() + b)));
      const __m256i packed = _mm256_and_si256(
          _mm256_or_si256(_mm256_or_si256(src, ix_bits), iy_bits), keep);
      const __m256i bytes = _mm256_permutevar8x32_epi32(
          _mm256_shuffle_epi8(packed, pack_bytes), pack_halves);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(tb_row + b),
                       _mm256_castsi256_si128(bytes));
    }

    // The reference takes the first cell, in row-then-band order, that
    // beats the best: here, the row's first lane holding its maximum.
    if (_mm256_movemask_epi8(_mm256_cmpgt_epi32(row_max, best_v)) != 0) {
      __m256i hmax = _mm256_max_epi32(
          row_max, _mm256_permute2x128_si256(row_max, row_max, 0x01));
      hmax = _mm256_max_epi32(hmax, _mm256_shuffle_epi32(hmax, 0x4E));
      hmax = _mm256_max_epi32(hmax, _mm256_shuffle_epi32(hmax, 0xB1));
      for (std::size_t b = 0; b < padded; b += 8) {
        const auto hits = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                _mm256_load_si256(
                    reinterpret_cast<const __m256i*>(curr_m + b)),
                hmax))));
        if (hits != 0) {
          best = _mm256_cvtsi256_si32(hmax);
          best_q = q;
          best_s = s_lo + static_cast<std::ptrdiff_t>(
                              b + static_cast<std::size_t>(
                                      __builtin_ctz(hits)));
          best_v = hmax;
          break;
        }
      }
    }
    std::swap(prev_m, curr_m);
    std::swap(prev_ix, curr_ix);
    std::swap(prev_iy, curr_iy);
  }

  return banded_traceback(query, subject, tb.get(), width, center_diag,
                          radius, best, best_q, best_s);
}

}  // namespace

GappedAlignment banded_local_align_simd(seq::CodeSpan query,
                                        seq::CodeSpan subject,
                                        const score::ScoringMatrix& scores,
                                        score::GapPenalties gaps,
                                        const BandedParams& params) {
  const std::size_t m = query.size();
  const std::size_t n = subject.size();
  if (m == 0 || n == 0) return {};
  const std::ptrdiff_t radius =
      clamp_band_radius(m, n, params.center_diag, params.band_radius);
  if (radius < 0) return {};
  return banded_avx2(query, subject, scores, gaps.open + gaps.extend,
                     gaps.extend, params.center_diag, radius);
}

#endif  // MENDEL_SIMD_X86

}  // namespace mendel::align::detail
