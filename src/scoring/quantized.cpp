#include "src/scoring/quantized.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/simd.h"
#include "src/scoring/matrix.h"

#if defined(MENDEL_SIMD_X86)
#include <immintrin.h>
#endif
#if defined(MENDEL_SIMD_ARM)
#include <arm_neon.h>
#endif

namespace mendel::score {

static_assert(QuantizedDistance::kMaxCodes == ScoringMatrix::kMaxCodes,
              "quantized LUT geometry must match the scoring matrices");

namespace {

// Per-lane int32 accumulation is safe while length * 65535 < 2^31; longer
// windows (never seen in practice — blocks are tens of residues) take the
// scalar int64 path.
constexpr std::size_t kMaxVectorLength = 32000;

constexpr std::size_t kCodesStride = QuantizedDistance::kMaxCodes;

// --- scalar reference kernels (always compiled, always the fallback) -----

std::int64_t qdist_scalar(const QuantizedDistance& q, const seq::Code* a,
                          const seq::Code* b, std::size_t length) {
  const std::uint16_t* lut = q.lut16();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < length; ++i) {
    total += lut[a[i] * kCodesStride + b[i]];
  }
  return total;
}

std::int64_t qdist_bounded_scalar(const QuantizedDistance& q,
                                  const seq::Code* a, const seq::Code* b,
                                  std::size_t length, std::int64_t qthresh) {
  const std::uint16_t* lut = q.lut16();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < length; ++i) {
    total += lut[a[i] * kCodesStride + b[i]];
    if (total > qthresh) return total;
  }
  return total;
}

void qbatch_scalar(const QuantizedDistance& q, const seq::Code* probe,
                   const seq::Code* base, std::size_t stride,
                   const std::uint32_t* slots, std::size_t count,
                   std::size_t length, std::int64_t qthresh,
                   std::int64_t* out) {
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = qdist_bounded_scalar(
        q, probe, base + static_cast<std::size_t>(slots[j]) * stride, length,
        qthresh);
  }
}

// --- packed-row kernels (bit-packed arena rows, decode fused in) ---------
//
// The scalar version accumulates the same LUT cells in the same order as
// qdist_bounded_scalar over the decoded row, so it is the bit-identity
// oracle for the vector packed kernels: identical keep/abandon decisions,
// identical kept values.

inline seq::Code packed_code(const std::uint8_t* row, std::size_t i,
                             unsigned bits) {
  const std::size_t bit = i * bits;
  return static_cast<seq::Code>((row[bit >> 3] >> (bit & 7)) &
                                ((1u << bits) - 1));
}

std::int64_t qdist_bounded_packed_scalar(const QuantizedDistance& q,
                                         const seq::Code* a,
                                         const std::uint8_t* row,
                                         unsigned bits, std::size_t length,
                                         std::int64_t qthresh) {
  const std::uint16_t* lut = q.lut16();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < length; ++i) {
    total += lut[a[i] * kCodesStride + packed_code(row, i, bits)];
    if (total > qthresh) return total;
  }
  return total;
}

void qbatch_packed_scalar(const QuantizedDistance& q, const seq::Code* probe,
                          const std::uint8_t* base, std::size_t stride,
                          unsigned bits, const std::uint32_t* slots,
                          std::size_t count, std::size_t length,
                          std::int64_t qthresh, std::int64_t* out) {
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = qdist_bounded_packed_scalar(
        q, probe, base + static_cast<std::size_t>(slots[j]) * stride, bits,
        length, qthresh);
  }
}

#if defined(MENDEL_SIMD_X86)

// --- SSE2 (x86-64 baseline, no target attribute needed) ------------------
//
// Without gathers the general LUT walk stays scalar; the win at this level
// is the mismatch-indicator (Hamming) path, which compares 16 residues per
// iteration and reduces match bytes with psadbw.

inline std::int64_t hamming_sse2(const seq::Code* a, const seq::Code* b,
                                 std::size_t length) {
  std::int64_t matches = 0;
  const __m128i ones = _mm_set1_epi8(1);
  std::size_t i = 0;
  __m128i acc = _mm_setzero_si128();
  for (; i + 16 <= length; i += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i eq = _mm_and_si128(_mm_cmpeq_epi8(va, vb), ones);
    acc = _mm_add_epi64(acc, _mm_sad_epu8(eq, _mm_setzero_si128()));
  }
  matches = _mm_cvtsi128_si64(acc) +
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc));
  std::int64_t mismatches = static_cast<std::int64_t>(i) - matches;
  for (; i < length; ++i) mismatches += a[i] == b[i] ? 0 : 1;
  return mismatches;
}

std::int64_t qdist_sse2(const QuantizedDistance& q, const seq::Code* a,
                        const seq::Code* b, std::size_t length) {
  if (!q.indicator() || length < 16) return qdist_scalar(q, a, b, length);
  return hamming_sse2(a, b, length);
}

std::int64_t qdist_bounded_sse2(const QuantizedDistance& q,
                                const seq::Code* a, const seq::Code* b,
                                std::size_t length, std::int64_t qthresh) {
  if (!q.indicator() || length < 16) {
    return qdist_bounded_scalar(q, a, b, length, qthresh);
  }
  // Mismatch counts are bounded by length, so for short windows the full
  // count is cheaper than mid-stream threshold checks.
  return hamming_sse2(a, b, length);
}

void qbatch_sse2(const QuantizedDistance& q, const seq::Code* probe,
                 const seq::Code* base, std::size_t stride,
                 const std::uint32_t* slots, std::size_t count,
                 std::size_t length, std::int64_t qthresh,
                 std::int64_t* out) {
  if (!q.indicator() || length < 16) {
    qbatch_scalar(q, probe, base, stride, slots, count, length, qthresh, out);
    return;
  }
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = hamming_sse2(
        probe, base + static_cast<std::size_t>(slots[j]) * stride, length);
  }
}

// --- AVX2 (per-function target attribute + runtime CPUID dispatch) -------

__attribute__((target("avx2"))) inline std::int64_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
  return _mm_cvtsi128_si32(s);
}

__attribute__((target("avx2"))) inline std::int64_t hamming_avx2(
    const seq::Code* a, const seq::Code* b, std::size_t length) {
  std::int64_t matches = 0;
  const __m256i ones = _mm256_set1_epi8(1);
  std::size_t i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 32 <= length; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i eq = _mm256_and_si256(_mm256_cmpeq_epi8(va, vb), ones);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(eq, _mm256_setzero_si256()));
  }
  const __m128i pair = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                     _mm256_extracti128_si256(acc, 1));
  matches = _mm_cvtsi128_si64(pair) +
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(pair, pair));
  std::int64_t mismatches = static_cast<std::int64_t>(i) - matches;
  for (; i < length; ++i) mismatches += a[i] == b[i] ? 0 : 1;
  return mismatches;
}

// General LUT path: widen 8 residue pairs, form LUT indices, gather int32
// distances. Accumulates in epi32 lanes; the caller guards length.
__attribute__((target("avx2"))) std::int64_t qdist_avx2(
    const QuantizedDistance& q, const seq::Code* a, const seq::Code* b,
    std::size_t length) {
  if (length >= kMaxVectorLength) return qdist_scalar(q, a, b, length);
  if (q.indicator() && length >= 32) return hamming_avx2(a, b, length);
  const std::int32_t* lut = q.lut32();
  const __m256i stride_v =
      _mm256_set1_epi32(static_cast<int>(kCodesStride));
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= length; i += 8) {
    const __m256i av = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i bv = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i)));
    const __m256i idx =
        _mm256_add_epi32(_mm256_mullo_epi32(av, stride_v), bv);
    acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32(lut, idx, 4));
  }
  std::int64_t total = hsum_epi32(acc);
  const std::uint16_t* lut16 = q.lut16();
  for (; i < length; ++i) total += lut16[a[i] * kCodesStride + b[i]];
  return total;
}

__attribute__((target("avx2"))) std::int64_t qdist_bounded_avx2(
    const QuantizedDistance& q, const seq::Code* a, const seq::Code* b,
    std::size_t length, std::int64_t qthresh) {
  if (length >= kMaxVectorLength) {
    return qdist_bounded_scalar(q, a, b, length, qthresh);
  }
  if (q.indicator() && length >= 32) return hamming_avx2(a, b, length);
  const std::int32_t* lut = q.lut32();
  const __m256i stride_v =
      _mm256_set1_epi32(static_cast<int>(kCodesStride));
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  std::size_t since_check = 0;
  for (; i + 8 <= length; i += 8) {
    const __m256i av = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i bv = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i)));
    const __m256i idx =
        _mm256_add_epi32(_mm256_mullo_epi32(av, stride_v), bv);
    acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32(lut, idx, 4));
    // The tau test runs once per 32-residue chunk instead of per residue:
    // cells are non-negative, so a partial sum past the threshold already
    // settles the abandon decision.
    since_check += 8;
    if (since_check >= 32 && i + 8 < length) {
      since_check = 0;
      const std::int64_t partial = hsum_epi32(acc);
      if (partial > qthresh) return partial;
    }
  }
  std::int64_t total = hsum_epi32(acc);
  const std::uint16_t* lut16 = q.lut16();
  for (; i < length; ++i) {
    total += lut16[a[i] * kCodesStride + b[i]];
    if (total > qthresh) return total;
  }
  return total;
}

// Batched leaf scan: 8 arena windows per pass, position-major. Two gathers
// per position (window residues, then the probe's LUT row), interleaved
// int32 accumulators, and a once-per-chunk all-lanes-abandoned test.
// Residues are fetched with 4-byte gathers masked to the low byte, which
// is why the arena guarantees a readable 32-byte guard tail.
__attribute__((target("avx2"))) void qbatch_avx2(
    const QuantizedDistance& q, const seq::Code* probe, const seq::Code* base,
    std::size_t stride, const std::uint32_t* slots, std::size_t count,
    std::size_t length, std::int64_t qthresh, std::int64_t* out) {
  if (length >= kMaxVectorLength) {
    qbatch_scalar(q, probe, base, stride, slots, count, length, qthresh, out);
    return;
  }
  if (q.indicator() && length >= 32) {
    for (std::size_t j = 0; j < count; ++j) {
      out[j] = hamming_avx2(
          probe, base + static_cast<std::size_t>(slots[j]) * stride, length);
    }
    return;
  }
  const std::int32_t* lut = q.lut32();
  // Lane-local abandon threshold: clamp into int32 so the vector compare
  // can never fire on a lane whose true threshold is still far away.
  const int thresh32 = static_cast<int>(std::min<std::int64_t>(
      qthresh, std::numeric_limits<std::int32_t>::max()));
  const __m256i thresh_v = _mm256_set1_epi32(thresh32);
  const __m256i byte_mask = _mm256_set1_epi32(0xff);
  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const __m256i slot_v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(slots + j));
    __m256i off = _mm256_mullo_epi32(
        slot_v, _mm256_set1_epi32(static_cast<int>(stride)));
    __m256i acc = _mm256_setzero_si256();
    std::size_t since_check = 0;
    for (std::size_t i = 0; i < length; ++i) {
      const __m256i raw = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(base), off, 1);
      const __m256i codes = _mm256_and_si256(raw, byte_mask);
      const std::int32_t* row = lut + probe[i] * kCodesStride;
      acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32(row, codes, 4));
      off = _mm256_add_epi32(off, _mm256_set1_epi32(1));
      if (++since_check >= 32 && i + 1 < length) {
        since_check = 0;
        const __m256i over = _mm256_cmpgt_epi32(acc, thresh_v);
        if (_mm256_movemask_epi8(over) == -1) break;  // every lane abandoned
      }
    }
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (std::size_t l = 0; l < 8; ++l) out[j + l] = lanes[l];
  }
  for (; j < count; ++j) {
    out[j] = qdist_bounded_scalar(
        q, probe, base + static_cast<std::size_t>(slots[j]) * stride, length,
        qthresh);
  }
}

// Packed batched leaf scan: like qbatch_avx2 but the row gather moves one
// 32-bit *word* per lane instead of one byte — 16 (2-bit) or 8 (4-bit)
// residues per gather — and codes are peeled off with a uniform right
// shift. Word starts within a row are 4-byte offsets, so every gather is
// the row base plus a shared in-row offset; the final word of the final
// row may overhang into the guard tail, which the arena keeps readable.
__attribute__((target("avx2"))) void qbatch_packed_avx2(
    const QuantizedDistance& q, const seq::Code* probe,
    const std::uint8_t* base, std::size_t stride, unsigned bits,
    const std::uint32_t* slots, std::size_t count, std::size_t length,
    std::int64_t qthresh, std::int64_t* out) {
  if (length >= kMaxVectorLength || (bits != 2 && bits != 4)) {
    qbatch_packed_scalar(q, probe, base, stride, bits, slots, count, length,
                         qthresh, out);
    return;
  }
  const std::int32_t* lut = q.lut32();
  const int thresh32 = static_cast<int>(std::min<std::int64_t>(
      qthresh, std::numeric_limits<std::int32_t>::max()));
  const __m256i thresh_v = _mm256_set1_epi32(thresh32);
  const __m256i code_mask = _mm256_set1_epi32((1 << bits) - 1);
  const __m128i shift_n = _mm_cvtsi32_si128(static_cast<int>(bits));
  const std::size_t codes_per_word = 32 / bits;
  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const __m256i slot_v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots + j));
    const __m256i off = _mm256_mullo_epi32(
        slot_v, _mm256_set1_epi32(static_cast<int>(stride)));
    __m256i acc = _mm256_setzero_si256();
    __m256i word = _mm256_setzero_si256();
    std::size_t phase = 0;
    std::size_t since_check = 0;
    for (std::size_t i = 0; i < length; ++i) {
      if (phase == 0) {
        const std::size_t word_byte = i * bits / 8;  // multiple of 4
        word = _mm256_i32gather_epi32(
            reinterpret_cast<const int*>(base + word_byte), off, 1);
      }
      const __m256i codes = _mm256_and_si256(word, code_mask);
      word = _mm256_srl_epi32(word, shift_n);
      if (++phase == codes_per_word) phase = 0;
      const std::int32_t* row = lut + probe[i] * kCodesStride;
      acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32(row, codes, 4));
      if (++since_check >= 32 && i + 1 < length) {
        since_check = 0;
        const __m256i over = _mm256_cmpgt_epi32(acc, thresh_v);
        if (_mm256_movemask_epi8(over) == -1) break;  // every lane abandoned
      }
    }
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (std::size_t l = 0; l < 8; ++l) out[j + l] = lanes[l];
  }
  for (; j < count; ++j) {
    out[j] = qdist_bounded_packed_scalar(
        q, probe, base + static_cast<std::size_t>(slots[j]) * stride, bits,
        length, qthresh);
  }
}

// --- AVX2 short-window kernels over a prepared QProbe --------------------
//
// The gather kernels above pay two gathers per residue per 8 rows. For the
// short windows Mendel indexes (8 residues by default) it is cheaper to
// move whole rows and look residues up in registers.

// Byte transpose of 32 rows x 8 positions, in four rounds of unpacks. On
// entry rows[k] holds rows k, 8 + k, 16 + k and 24 + k (one 8-byte row per
// 64-bit element); on exit rows[p] holds position p of row r in byte r.
__attribute__((target("avx2"))) inline void transpose_rows_8x32(
    __m256i rows[8]) {
  __m256i b[8];
  for (int m = 0; m < 4; ++m) {
    b[2 * m] = _mm256_unpacklo_epi8(rows[2 * m], rows[2 * m + 1]);
    b[2 * m + 1] = _mm256_unpackhi_epi8(rows[2 * m], rows[2 * m + 1]);
  }
  __m256i c[8];
  for (int n = 0; n < 2; ++n) {
    for (int h = 0; h < 2; ++h) {
      const __m256i x = b[4 * n + h];
      const __m256i y = b[4 * n + 2 + h];
      c[4 * n + 2 * h] = _mm256_unpacklo_epi16(x, y);
      c[4 * n + 2 * h + 1] = _mm256_unpackhi_epi16(x, y);
    }
  }
  __m256i d[8];
  for (int h = 0; h < 2; ++h) {
    for (int g = 0; g < 2; ++g) {
      const __m256i x = c[2 * h + g];
      const __m256i y = c[4 + 2 * h + g];
      d[4 * h + 2 * g] = _mm256_unpacklo_epi32(x, y);
      d[4 * h + 2 * g + 1] = _mm256_unpackhi_epi32(x, y);
    }
  }
  for (int g = 0; g < 2; ++g) {
    for (int f = 0; f < 2; ++f) {
      const __m256i x = d[2 * g + f];
      const __m256i y = d[4 + 2 * g + f];
      rows[4 * g + 2 * f] = _mm256_unpacklo_epi64(x, y);
      rows[4 * g + 2 * f + 1] = _mm256_unpackhi_epi64(x, y);
    }
  }
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Shuffle kernel: 32 rows per pass. Eight 4-row gathers move 8 bytes of
// each row, a byte transpose makes one register per position, and each
// position is looked up in the probe's byte LUT row with vpshufb — codes
// 0-15 in one table, 16-23 in the other; the index bias zeroes the lookup
// of the table a code is not in, so an OR blends the two. Sums add with
// unsigned saturation (QProbe::lane_limit says when that is exact). Rows
// of 9-16 residues take a second pass over their upper 8 bytes. Every
// gather stays inside its row (stride >= the window rounded up to 8). A
// short final pass repeats its first slot to fill the 32 lanes.
__attribute__((target("avx2"))) bool qprobe_batch_avx2(
    const QProbe& p, const seq::Code* base, std::size_t stride,
    const std::uint32_t* slots, std::size_t count, std::int64_t qthresh,
    std::int64_t* out) {
  if (!p.shuffle_ready() || qthresh > p.lane_limit()) return false;
  const std::size_t len = p.length();
  const std::uint8_t* table = p.shuffle_table();
  const __m256i stride_v = _mm256_set1_epi32(static_cast<int>(stride));
  const __m256i lo_bias = _mm256_set1_epi8(0x70);
  const __m256i hi_base = _mm256_set1_epi8(16);
  std::uint32_t padded[32];
  for (std::size_t j = 0; j < count; j += 32) {
    const std::size_t run = std::min<std::size_t>(32, count - j);
    const std::uint32_t* block = slots + j;
    if (run < 32) {
      std::copy(block, block + run, padded);
      std::fill(padded + run, padded + 32, block[0]);
      block = padded;
    }
    // Row offsets, transposed so that register k gathers rows k, 8 + k,
    // 16 + k and 24 + k: the byte transpose then leaves row r in byte r.
    __m256i by_eight[4];
    for (int e = 0; e < 4; ++e) {
      by_eight[e] = _mm256_mullo_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 8 * e)),
          stride_v);
    }
    const __m256i t0 = _mm256_unpacklo_epi32(by_eight[0], by_eight[1]);
    const __m256i t1 = _mm256_unpackhi_epi32(by_eight[0], by_eight[1]);
    const __m256i t2 = _mm256_unpacklo_epi32(by_eight[2], by_eight[3]);
    const __m256i t3 = _mm256_unpackhi_epi32(by_eight[2], by_eight[3]);
    const __m256i u[4] = {
        _mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2),
        _mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3)};
    __m128i off[8];
    for (int k = 0; k < 4; ++k) {
      off[k] = _mm256_castsi256_si128(u[k]);
      off[k + 4] = _mm256_extracti128_si256(u[k], 1);
    }
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t c = 0; c < len; c += 8) {
      __m256i rows[8];
      for (int k = 0; k < 8; ++k) {
        rows[k] = _mm256_i32gather_epi64(
            reinterpret_cast<const long long*>(base + c), off[k], 1);
      }
      transpose_rows_8x32(rows);
      const std::size_t positions = std::min<std::size_t>(len - c, 8);
      for (std::size_t i = 0; i < positions; ++i) {
        const std::uint8_t* cells = table + 32 * (c + i);
        const __m256i lo = _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cells)));
        const __m256i hi = _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cells + 16)));
        const __m256i v = _mm256_or_si256(
            _mm256_shuffle_epi8(lo, _mm256_adds_epu8(rows[i], lo_bias)),
            _mm256_shuffle_epi8(hi, _mm256_sub_epi8(rows[i], hi_base)));
        acc = _mm256_adds_epu8(acc, v);
      }
    }
    alignas(32) std::uint8_t lanes[32];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    if (run == 32) {
      for (std::size_t r = 0; r < 32; r += 4) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(out + j + r),
            _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(
                static_cast<int>(load_u32(lanes + r)))));
      }
    } else {
      for (std::size_t r = 0; r < run; ++r) out[j + r] = lanes[r];
    }
  }
  return true;
}

// XOR kernel: 8 rows per pass, one 32-bit word (16 residues) per gather.
// XOR against the packed probe leaves a non-zero 2-bit pair exactly where
// the codes differ; folding each pair onto its low bit and counting bits
// with a nibble-LUT popcount gives the mismatch count, which is the
// indicator distance. Mismatch counts never exceed the window, so the
// kernel computes them in full rather than testing qthresh. The last word
// of a row may read up to 3 bytes past it (the guard tail covers the last
// row); the mask drops those pairs.
__attribute__((target("avx2"))) bool qprobe_batch_packed_avx2(
    const QProbe& p, const std::uint8_t* base, std::size_t stride,
    unsigned bits, const std::uint32_t* slots, std::size_t count,
    std::int64_t /*qthresh*/, std::int64_t* out) {
  if (bits != 2 || !p.xor_ready()) return false;
  const std::size_t len = p.length();
  const std::size_t words = (len + 15) / 16;
  const std::uint32_t* probe = p.packed_words();
  const __m256i stride_v = _mm256_set1_epi32(static_cast<int>(stride));
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i popcount4 = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i ones8 = _mm256_set1_epi8(1);
  const __m256i ones16 = _mm256_set1_epi16(1);
  std::uint32_t padded[8];
  for (std::size_t j = 0; j < count; j += 8) {
    const std::size_t run = std::min<std::size_t>(8, count - j);
    const std::uint32_t* block = slots + j;
    if (run < 8) {
      std::copy(block, block + run, padded);
      std::fill(padded + run, padded + 8, block[0]);
      block = padded;
    }
    const __m256i off = _mm256_mullo_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block)),
        stride_v);
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t codes = std::min<std::size_t>(len - 16 * w, 16);
      const std::uint32_t low_bits =
          codes == 16 ? 0x55555555u : 0x55555555u & ((1u << (2 * codes)) - 1);
      const __m256i row = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(base + 4 * w), off, 1);
      __m256i x = _mm256_xor_si256(
          row, _mm256_set1_epi32(static_cast<int>(probe[w])));
      x = _mm256_and_si256(_mm256_or_si256(x, _mm256_srli_epi32(x, 1)),
                           _mm256_set1_epi32(static_cast<int>(low_bits)));
      const __m256i per_byte = _mm256_add_epi8(
          _mm256_shuffle_epi8(popcount4, _mm256_and_si256(x, nibble)),
          _mm256_shuffle_epi8(popcount4,
                              _mm256_and_si256(_mm256_srli_epi16(x, 4),
                                               nibble)));
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(_mm256_maddubs_epi16(per_byte, ones8),
                                 ones16));
    }
    if (run == 8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + j + 4),
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc, 1)));
    } else {
      alignas(32) std::int32_t lanes[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
      for (std::size_t r = 0; r < run; ++r) out[j + r] = lanes[r];
    }
  }
  return true;
}

#endif  // MENDEL_SIMD_X86

#if defined(MENDEL_SIMD_ARM)

// --- NEON: 128-bit mismatch counting; the general LUT walk is scalar ----

inline std::int64_t hamming_neon(const seq::Code* a, const seq::Code* b,
                                 std::size_t length) {
  std::int64_t mismatches = 0;
  std::size_t i = 0;
  for (; i + 16 <= length; i += 16) {
    const uint8x16_t va = vld1q_u8(a + i);
    const uint8x16_t vb = vld1q_u8(b + i);
    const uint8x16_t ne = vmvnq_u8(vceqq_u8(va, vb));
    mismatches += vaddvq_u8(vandq_u8(ne, vdupq_n_u8(1)));
  }
  for (; i < length; ++i) mismatches += a[i] == b[i] ? 0 : 1;
  return mismatches;
}

std::int64_t qdist_neon(const QuantizedDistance& q, const seq::Code* a,
                        const seq::Code* b, std::size_t length) {
  if (!q.indicator() || length < 16) return qdist_scalar(q, a, b, length);
  return hamming_neon(a, b, length);
}

std::int64_t qdist_bounded_neon(const QuantizedDistance& q,
                                const seq::Code* a, const seq::Code* b,
                                std::size_t length, std::int64_t qthresh) {
  if (!q.indicator() || length < 16) {
    return qdist_bounded_scalar(q, a, b, length, qthresh);
  }
  return hamming_neon(a, b, length);
}

void qbatch_neon(const QuantizedDistance& q, const seq::Code* probe,
                 const seq::Code* base, std::size_t stride,
                 const std::uint32_t* slots, std::size_t count,
                 std::size_t length, std::int64_t qthresh,
                 std::int64_t* out) {
  if (!q.indicator() || length < 16) {
    qbatch_scalar(q, probe, base, stride, slots, count, length, qthresh, out);
    return;
  }
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = hamming_neon(
        probe, base + static_cast<std::size_t>(slots[j]) * stride, length);
  }
}

#endif  // MENDEL_SIMD_ARM

// The short-window kernels at levels that lack them: every QProbe scan
// then takes the level's gather or scalar kernel.
bool decline_batch(const QProbe&, const seq::Code*, std::size_t,
                   const std::uint32_t*, std::size_t, std::int64_t,
                   std::int64_t*) {
  return false;
}

bool decline_batch_packed(const QProbe&, const std::uint8_t*, std::size_t,
                          unsigned, const std::uint32_t*, std::size_t,
                          std::int64_t, std::int64_t*) {
  return false;
}

constexpr QKernelTable kScalarTable{
    qdist_scalar,         qdist_bounded_scalar, qbatch_scalar,
    qbatch_packed_scalar, decline_batch,        decline_batch_packed};

// SSE2 and NEON lack the gathers the fused-decode scan leans on, so their
// packed entries alias the scalar packed kernel (still bit-identical).
const QKernelTable kTables[4] = {
    kScalarTable,
#if defined(MENDEL_SIMD_X86)
    {qdist_sse2, qdist_bounded_sse2, qbatch_sse2, qbatch_packed_scalar,
     decline_batch, decline_batch_packed},
    {qdist_avx2, qdist_bounded_avx2, qbatch_avx2, qbatch_packed_avx2,
     qprobe_batch_avx2, qprobe_batch_packed_avx2},
#else
    kScalarTable,
    kScalarTable,
#endif
#if defined(MENDEL_SIMD_ARM)
    {qdist_neon, qdist_bounded_neon, qbatch_neon, qbatch_packed_scalar,
     decline_batch, decline_batch_packed},
#else
    kScalarTable,
#endif
};

}  // namespace

QProbe::QProbe(const QuantizedDistance& q, const seq::Code* codes,
               std::size_t length)
    : q_(&q), codes_(codes), length_(length) {
  if (length <= kShortWindow) {
    bool fits = true;
    std::int64_t max_sum = 0;
    for (std::size_t i = 0; i < length && fits; ++i) {
      const std::uint16_t* row = q.lut16() + codes[i] * kCodesStride;
      std::uint16_t row_max = 0;
      for (std::size_t b = 0; b < kCodesStride; ++b) {
        fits = fits && row[b] <= 255;
        row_max = std::max(row_max, row[b]);
        shuffle_[32 * i + b] = static_cast<std::uint8_t>(row[b]);
      }
      max_sum += row_max;
    }
    shuffle_ready_ = fits;
    lane_limit_ = max_sum <= 255 ? std::numeric_limits<std::int64_t>::max()
                                 : 254;
  }
  if (q.indicator() && length <= kMaxXorWindow) {
    xor_ready_ = true;
    for (std::size_t i = 0; i < length; ++i) {
      xor_ready_ = xor_ready_ && codes[i] < 4;
      packed_[i / 16] |= static_cast<std::uint32_t>(codes[i] & 3)
                         << (2 * (i % 16));
    }
  }
}

void QProbe::scan(const seq::Code* base, std::size_t stride,
                  const std::uint32_t* slots, std::size_t count,
                  std::int64_t qthresh, std::int64_t* out) const {
  const QKernelTable& k = qkernels();
  if (!k.probe_batch(*this, base, stride, slots, count, qthresh, out)) {
    k.distance_batch(*q_, codes_, base, stride, slots, count, length_,
                     qthresh, out);
  }
}

void QProbe::scan_packed(const std::uint8_t* base, std::size_t stride,
                         unsigned bits, const std::uint32_t* slots,
                         std::size_t count, std::int64_t qthresh,
                         std::int64_t* out) const {
  const QKernelTable& k = qkernels();
  if (!k.probe_batch_packed(*this, base, stride, bits, slots, count, qthresh,
                            out)) {
    k.distance_batch_packed(*q_, codes_, base, stride, bits, slots, count,
                            length_, qthresh, out);
  }
}

std::shared_ptr<const QuantizedDistance> QuantizedDistance::build(
    const double* cells, std::size_t cardinality) {
  std::int64_t scale = 0;
  for (std::int64_t candidate : {1, 2, 4, 8}) {
    bool exact = true;
    for (std::size_t i = 0; i < kCells && exact; ++i) {
      const double v = cells[i];
      if (!(v >= 0.0) || !std::isfinite(v)) {
        return nullptr;  // negative / NaN cells are never representable
      }
      const double scaled = v * static_cast<double>(candidate);
      exact = scaled == std::floor(scaled) && scaled <= 65535.0;
    }
    if (exact) {
      scale = candidate;
      break;
    }
  }
  if (scale == 0) return nullptr;

  auto q = std::shared_ptr<QuantizedDistance>(new QuantizedDistance());
  q->scale_ = scale;
  for (std::size_t i = 0; i < kCells; ++i) {
    const auto v = static_cast<std::uint16_t>(
        cells[i] * static_cast<double>(scale));
    q->lut16_[i] = v;
    q->lut32_[i] = v;
  }
  bool indicator = true;
  const std::size_t n = std::min(cardinality, kMaxCodes);
  for (std::size_t a = 0; a < n && indicator; ++a) {
    for (std::size_t b = 0; b < n && indicator; ++b) {
      const std::uint16_t expected = a == b ? 0 : 1;
      indicator = q->lut16_[a * kMaxCodes + b] == expected;
    }
  }
  // The byte-compare kernels count raw mismatches, so the indicator path
  // additionally requires scale == 1 (a scaled indicator would need a
  // multiply the kernels don't do).
  q->indicator_ = indicator && scale == 1;
  return q;
}

std::int64_t QuantizedDistance::threshold(double bound) const {
  if (std::isnan(bound)) {
    // total > NaN is always false: the scalar kernel never abandons.
    return std::numeric_limits<std::int64_t>::max();
  }
  const double scaled = bound * static_cast<double>(scale_);
  if (scaled >= 9.0e18) return std::numeric_limits<std::int64_t>::max();
  if (scaled < 0.0) return -1;  // every non-negative sum abandons
  return static_cast<std::int64_t>(std::floor(scaled));
}

const QKernelTable& qkernels() {
  return qkernels_for(static_cast<int>(simd::active_level()));
}

const QKernelTable& qkernels_for(int level) {
  return kTables[level & 3];
}


}  // namespace mendel::score
