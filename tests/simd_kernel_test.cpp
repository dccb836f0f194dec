// Randomized exactness pinning for the SIMD kernels.
//
// The dispatched kernels (quantized window distances, batched leaf scans,
// striped banded DP) are only admissible because they are *exact*: every
// result the search pipeline can observe must be bit-identical to the
// scalar references. This suite fuzzes thousands of random windows,
// matrices, tau values, and band geometries against those references on
// every SIMD level runnable on the build host — so a scalar-only CI leg
// degenerates to scalar-vs-scalar (vacuous but harmless) while an AVX2 leg
// pins the vector kernels.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/align/banded.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/scoring/distance.h"
#include "src/scoring/matrix.h"
#include "src/scoring/quantized.h"
#include "src/sequence/alphabet.h"
#include "src/vptree/window_arena.h"

namespace mendel {
namespace {

using score::DistanceMatrix;
using score::QuantizedDistance;

std::vector<seq::Code> random_window(Rng& rng, std::size_t length,
                                     std::size_t cardinality) {
  std::vector<seq::Code> w(length);
  for (auto& c : w) c = static_cast<seq::Code>(rng.below(cardinality));
  return w;
}

// A random exactly-representable matrix: cells are k/scale with k <=
// 65535, zero diagonal, symmetric. requantize() must accept it.
DistanceMatrix random_exact_matrix(Rng& rng, seq::Alphabet alphabet,
                                   std::int64_t scale) {
  DistanceMatrix d(alphabet);
  const std::size_t n = seq::cardinality(alphabet);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double v = static_cast<double>(rng.below(200)) /
                       static_cast<double>(scale);
      d.set(static_cast<seq::Code>(a), static_cast<seq::Code>(b), v);
      d.set(static_cast<seq::Code>(b), static_cast<seq::Code>(a), v);
    }
  }
  EXPECT_TRUE(d.requantize());
  return d;
}

class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(simd::active_level()) {}
  ~SimdLevelGuard() { simd::set_active_level(saved_); }

 private:
  simd::Level saved_;
};

TEST(SimdDispatch, LevelsAreRunnableAndRestorable) {
  SimdLevelGuard guard;
  const auto levels = simd::available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  for (simd::Level level : levels) {
    EXPECT_EQ(simd::set_active_level(level), level);
    EXPECT_EQ(simd::active_level(), level);
  }
}

TEST(Quantization, ShippedMatricesHaveExactTwins) {
  EXPECT_NE(score::default_distance(seq::Alphabet::kDna).quantized(),
            nullptr);
  EXPECT_NE(score::default_distance(seq::Alphabet::kProtein).quantized(),
            nullptr);
  // The DNA default is a plain mismatch indicator: the Hamming byte-compare
  // fast path must engage.
  const auto* dna = score::default_distance(seq::Alphabet::kDna).quantized();
  EXPECT_TRUE(dna->indicator());
  EXPECT_EQ(dna->scale(), 1);
  // The symmetrized BLOSUM62 metric is half-integral, not an indicator.
  const auto* prot =
      score::default_distance(seq::Alphabet::kProtein).quantized();
  EXPECT_FALSE(prot->indicator());
}

TEST(Quantization, UnrepresentableMatrixFallsBackToDouble) {
  DistanceMatrix d = DistanceMatrix::hamming(seq::Alphabet::kDna);
  ASSERT_NE(d.quantized(), nullptr);
  d.set(0, 1, 0.3);  // not k/scale for scale in {1,2,4,8}
  d.set(1, 0, 0.3);
  EXPECT_EQ(d.quantized(), nullptr);
  EXPECT_FALSE(d.requantize());
  // The double path still answers.
  const std::vector<seq::Code> a{0, 1, 2, 3}, b{1, 0, 2, 3};
  EXPECT_DOUBLE_EQ(score::window_distance_unchecked(d, a.data(), b.data(), 4),
                   0.6);
}

TEST(Quantization, ThresholdEdgeCases) {
  const DistanceMatrix d = DistanceMatrix::hamming(seq::Alphabet::kDna);
  const QuantizedDistance* q = d.quantized();
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->threshold(std::numeric_limits<double>::quiet_NaN()),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(q->threshold(std::numeric_limits<double>::infinity()),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(q->threshold(-1.0), -1);
  EXPECT_EQ(q->threshold(-0.0), 0);
  EXPECT_EQ(q->threshold(3.0), 3);
  EXPECT_EQ(q->threshold(3.5), 3);
}

// Distance + bounded distance: every level vs the double scalar reference.
TEST(SimdKernels, WindowDistanceBitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  Rng rng(0x51D0001);
  std::vector<DistanceMatrix> matrices;
  matrices.push_back(DistanceMatrix::hamming(seq::Alphabet::kDna));
  matrices.push_back(
      DistanceMatrix::metric_from_scores(score::blosum62()));
  matrices.push_back(DistanceMatrix::paper_from_scores(score::pam250()));
  matrices.push_back(random_exact_matrix(rng, seq::Alphabet::kProtein, 2));
  matrices.push_back(random_exact_matrix(rng, seq::Alphabet::kDna, 8));

  for (const DistanceMatrix& d : matrices) {
    ASSERT_NE(d.quantized(), nullptr);
    const std::size_t card = seq::cardinality(d.alphabet());
    for (int iter = 0; iter < 400; ++iter) {
      const std::size_t len = 1 + rng.below(96);
      const auto a = random_window(rng, len, card);
      const auto b = random_window(rng, len, card);
      const double ref =
          score::detail::window_distance_scalar(d, a.data(), b.data(), len);
      // A mix of decisive, marginal, and degenerate bounds.
      const double bounds[] = {ref, ref / 2.0, ref * 2.0 + 1.0, 0.0,
                               rng.uniform() * static_cast<double>(len)};
      for (simd::Level level : simd::available_levels()) {
        simd::set_active_level(level);
        EXPECT_EQ(score::window_distance_unchecked(d, a.data(), b.data(), len),
                  ref)
            << "level " << simd::level_name(level);
        for (double bound : bounds) {
          const double got = score::window_distance_bounded_unchecked(
              d, a.data(), b.data(), len, bound);
          const double want = score::detail::window_distance_bounded_scalar(
              d, a.data(), b.data(), len, bound);
          // Identical keep/abandon decision...
          ASSERT_EQ(got <= bound, want <= bound)
              << "level " << simd::level_name(level) << " bound " << bound;
          // ...and bit-identical value whenever the result is kept.
          if (want <= bound) {
            ASSERT_EQ(got, want)
                << "level " << simd::level_name(level) << " bound " << bound;
          }
        }
      }
    }
  }
}

// Batched leaf scan vs the item-at-a-time scalar kernel, straight at the
// kernel-table layer (arena layout contract included).
TEST(SimdKernels, BatchedScanMatchesScalarPerItem) {
  Rng rng(0x51D0002);
  std::vector<DistanceMatrix> matrices;
  matrices.push_back(DistanceMatrix::hamming(seq::Alphabet::kDna));
  matrices.push_back(
      DistanceMatrix::metric_from_scores(score::blosum62()));
  for (const DistanceMatrix& d : matrices) {
    const QuantizedDistance* q = d.quantized();
    ASSERT_NE(q, nullptr);
    const std::size_t card = seq::cardinality(d.alphabet());
    for (std::size_t len : {1UL, 7UL, 8UL, 16UL, 33UL, 64UL}) {
      vpt::WindowArena arena;
      const std::size_t windows = 70;
      for (std::size_t i = 0; i < windows; ++i) {
        arena.append(seq::CodeSpan(random_window(rng, len, card)));
      }
      ASSERT_TRUE(arena.layout_ok());
      const auto probe = random_window(rng, len, card);
      std::vector<std::uint32_t> slots(windows);
      for (std::size_t i = 0; i < windows; ++i) {
        slots[i] = static_cast<std::uint32_t>(rng.below(windows));
      }
      const auto& scalar = score::qkernels_for(0);
      for (int iter = 0; iter < 24; ++iter) {
        const std::int64_t qthresh = static_cast<std::int64_t>(
            rng.below(len * 4 + 2)) - 1;
        std::vector<std::int64_t> want(windows);
        scalar.distance_batch(*q, probe.data(), arena.base(), arena.stride(),
                              slots.data(), windows, len, qthresh,
                              want.data());
        for (simd::Level level : simd::available_levels()) {
          const auto& k =
              score::qkernels_for(static_cast<int>(level));
          std::vector<std::int64_t> got(windows, -42);
          k.distance_batch(*q, probe.data(), arena.base(), arena.stride(),
                           slots.data(), windows, len, qthresh, got.data());
          for (std::size_t j = 0; j < windows; ++j) {
            ASSERT_EQ(got[j] > qthresh, want[j] > qthresh)
                << "level " << simd::level_name(level) << " len " << len
                << " slot " << j;
            if (want[j] <= qthresh) {
              ASSERT_EQ(got[j], want[j])
                  << "level " << simd::level_name(level) << " len " << len;
            }
          }
        }
      }
    }
  }
}

bool alignments_identical(const align::GappedAlignment& a,
                          const align::GappedAlignment& b) {
  return a.hsp.score == b.hsp.score && a.hsp.q_begin == b.hsp.q_begin &&
         a.hsp.q_end == b.hsp.q_end && a.hsp.s_begin == b.hsp.s_begin &&
         a.hsp.s_end == b.hsp.s_end && a.columns == b.columns &&
         a.identities == b.identities && a.gap_columns == b.gap_columns &&
         a.cigar == b.cigar;
}

// Striped banded DP vs the scalar oracle: identical alignment, not just
// identical score — coordinates, CIGAR, and column stats included.
TEST(SimdKernels, BandedAlignmentIdenticalToReference) {
  Rng rng(0x51D0003);
  const score::ScoringMatrix dna = score::dna_matrix();
  const score::ScoringMatrix& prot = score::blosum62();
  for (int iter = 0; iter < 600; ++iter) {
    const bool protein = iter % 2 == 1;
    const score::ScoringMatrix& scores = protein ? prot : dna;
    const std::size_t card = seq::cardinality(scores.alphabet());
    const std::size_t qlen = 1 + rng.below(80);
    const std::size_t slen = 1 + rng.below(80);
    // Half the time: a mutated copy so real alignments exist; otherwise
    // independent noise exercises the dead-cell plumbing.
    std::vector<seq::Code> query = random_window(rng, qlen, card);
    std::vector<seq::Code> subject;
    if (iter % 2 == 0 && qlen <= slen) {
      subject = query;
      subject.resize(slen);
      for (std::size_t i = qlen; i < slen; ++i) {
        subject[i] = static_cast<seq::Code>(rng.below(card));
      }
      for (std::size_t i = 0; i < slen / 8; ++i) {
        subject[rng.below(slen)] = static_cast<seq::Code>(rng.below(card));
      }
    } else {
      subject = random_window(rng, slen, card);
    }
    align::BandedParams params;
    params.band_radius = 1 + rng.below(24);
    params.center_diag =
        static_cast<std::ptrdiff_t>(rng.below(2 * slen + 1)) -
        static_cast<std::ptrdiff_t>(slen);
    const score::GapPenalties gaps{
        static_cast<int>(1 + rng.below(12)),
        static_cast<int>(1 + rng.below(3))};
    const auto ref = align::banded_local_align_reference(
        seq::CodeSpan(query), seq::CodeSpan(subject), scores, gaps, params);
    const auto simd_result = align::detail::banded_local_align_simd(
        seq::CodeSpan(query), seq::CodeSpan(subject), scores, gaps, params);
    ASSERT_TRUE(alignments_identical(ref, simd_result))
        << "iter " << iter << ": ref score " << ref.hsp.score << " cigar "
        << ref.hsp.score << " vs simd score " << simd_result.hsp.score;
  }
}

// The public entry point must dispatch consistently at every level.
TEST(SimdKernels, BandedDispatchMatchesReferenceAtEveryLevel) {
  SimdLevelGuard guard;
  Rng rng(0x51D0004);
  const score::ScoringMatrix& scores = score::blosum62();
  const std::size_t card = seq::cardinality(scores.alphabet());
  for (int iter = 0; iter < 50; ++iter) {
    const auto query = random_window(rng, 40 + rng.below(40), card);
    const auto subject = random_window(rng, 40 + rng.below(40), card);
    align::BandedParams params;
    params.band_radius = 16;
    params.center_diag = 0;
    const auto ref = align::banded_local_align_reference(
        seq::CodeSpan(query), seq::CodeSpan(subject), scores,
        scores.default_gaps(), params);
    for (simd::Level level : simd::available_levels()) {
      simd::set_active_level(level);
      const auto got = align::banded_local_align(
          seq::CodeSpan(query), seq::CodeSpan(subject), scores,
          scores.default_gaps(), params);
      ASSERT_TRUE(alignments_identical(ref, got))
          << "level " << simd::level_name(level);
    }
  }
}

// Packed batched leaf scan: the kernels that fuse 2-bit/4-bit row decode
// into the scan must make exactly the unpacked scalar kernel's
// keep/abandon decisions and produce bit-identical kept values — on every
// SIMD level runnable on the build host, phase boundaries and tail slots
// included.
TEST(SimdKernels, PackedBatchedScanMatchesUnpackedOracle) {
  Rng rng(0x51D0006);
  std::vector<DistanceMatrix> matrices;
  matrices.push_back(DistanceMatrix::hamming(seq::Alphabet::kDna));
  matrices.push_back(random_exact_matrix(rng, seq::Alphabet::kDna, 8));
  for (const DistanceMatrix& d : matrices) {
    const QuantizedDistance* q = d.quantized();
    ASSERT_NE(q, nullptr);
    const std::size_t card = seq::cardinality(d.alphabet());
    for (unsigned bits : {2u, 4u}) {
      // Codes must fit both the alphabet and the packed width (the 2-bit
      // pass exercises the DNA core; 4-bit fits the ambiguity code too).
      const std::size_t limit = std::min<std::size_t>(card, 1u << bits);
      for (std::size_t len : {1UL, 7UL, 8UL, 15UL, 16UL, 31UL, 33UL, 64UL}) {
        vpt::WindowArena packed;
        packed.configure({.packed_bits = bits});
        vpt::WindowArena plain;
        const std::size_t windows = 70;
        for (std::size_t i = 0; i < windows; ++i) {
          const auto w = random_window(rng, len, limit);
          packed.append(seq::CodeSpan(w));
          plain.append(seq::CodeSpan(w));
        }
        ASSERT_EQ(packed.packed_bits(), bits);
        ASSERT_TRUE(packed.layout_ok());
        const auto probe = random_window(rng, len, card);
        std::vector<std::uint32_t> slots(windows);
        for (std::size_t i = 0; i < windows; ++i) {
          slots[i] = static_cast<std::uint32_t>(rng.below(windows));
        }
        const auto& scalar = score::qkernels_for(0);
        for (int iter = 0; iter < 16; ++iter) {
          const std::int64_t qthresh =
              static_cast<std::int64_t>(rng.below(len * 4 + 2)) - 1;
          std::vector<std::int64_t> want(windows);
          scalar.distance_batch(*q, probe.data(), plain.base(),
                                plain.stride(), slots.data(), windows, len,
                                qthresh, want.data());
          for (simd::Level level : simd::available_levels()) {
            const auto& k = score::qkernels_for(static_cast<int>(level));
            std::vector<std::int64_t> got(windows, -42);
            k.distance_batch_packed(*q, probe.data(), packed.base(),
                                    packed.stride(), bits, slots.data(),
                                    windows, len, qthresh, got.data());
            for (std::size_t j = 0; j < windows; ++j) {
              ASSERT_EQ(got[j] > qthresh, want[j] > qthresh)
                  << "level " << simd::level_name(level) << " bits " << bits
                  << " len " << len << " slot " << j;
              if (want[j] <= qthresh) {
                ASSERT_EQ(got[j], want[j])
                    << "level " << simd::level_name(level) << " bits "
                    << bits << " len " << len;
              }
            }
          }
        }
      }
    }
  }
}

// --- short-window kernels over a prepared QProbe ---------------------------
//
// The fuzz below calls the AVX2 short-window kernels directly and asserts
// whether each one applies, so a fast path that is silently never taken
// fails here rather than passing through the gather-kernel fallback.

// A full first arena allocation: its last row sits right before the guard
// tail, so whole-row and whole-word reads of that row probe the tail.
constexpr std::size_t kArenaRows = 1024;

bool avx2_runnable() {
  const auto levels = simd::available_levels();
  return std::find(levels.begin(), levels.end(), simd::Level::kAVX2) !=
         levels.end();
}

// Scan slots: random rows plus the last arena row, at both ends of the
// run and in the middle; the count is not a multiple of 8 or 32, so the
// kernels' padded final passes run too.
std::vector<std::uint32_t> scan_slots(Rng& rng) {
  std::vector<std::uint32_t> slots(75);
  for (auto& slot : slots) {
    slot = static_cast<std::uint32_t>(rng.below(kArenaRows));
  }
  slots.front() = slots[37] = slots.back() = kArenaRows - 1;
  return slots;
}

// Thresholds around the byte-lane limit plus random and unbounded ones.
std::vector<std::int64_t> scan_thresholds(Rng& rng, std::int64_t span) {
  return {-1,  0,   253, 254, 255, 256,
          static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(
              span + 1))),
          std::numeric_limits<std::int64_t>::max()};
}

// Keep/abandon decisions and kept values of `got` match the scalar oracle.
void expect_matches_oracle(const std::vector<std::int64_t>& got,
                           const std::vector<std::int64_t>& want,
                           std::int64_t qthresh, const std::string& what) {
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(got[j] > qthresh, want[j] > qthresh) << what << " item " << j;
    if (want[j] <= qthresh) {
      ASSERT_EQ(got[j], want[j]) << what << " item " << j;
    }
  }
}

// A random exact matrix whose cells exceed a byte: the shuffle kernel must
// decline and the gather fallback still answer exactly.
DistanceMatrix wide_exact_matrix(Rng& rng) {
  DistanceMatrix d(seq::Alphabet::kProtein);
  const std::size_t n = seq::cardinality(seq::Alphabet::kProtein);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double v = static_cast<double>(200 + rng.below(2000));
      d.set(static_cast<seq::Code>(a), static_cast<seq::Code>(b), v);
      d.set(static_cast<seq::Code>(b), static_cast<seq::Code>(a), v);
    }
  }
  EXPECT_TRUE(d.requantize());
  return d;
}

TEST(SimdKernels, ShuffleKernelMatchesScalarOracle) {
  SimdLevelGuard guard;
  Rng rng(0x51D0009);
  const bool avx2 = avx2_runnable();
  const auto& avx2_table =
      score::qkernels_for(static_cast<int>(simd::Level::kAVX2));
  const auto& scalar = score::qkernels_for(0);
  std::vector<DistanceMatrix> matrices;
  matrices.push_back(DistanceMatrix::metric_from_scores(score::blosum62()));
  matrices.push_back(DistanceMatrix::paper_from_scores(score::pam250()));
  matrices.push_back(random_exact_matrix(rng, seq::Alphabet::kProtein, 2));
  matrices.push_back(DistanceMatrix::hamming(seq::Alphabet::kDna));
  matrices.push_back(wide_exact_matrix(rng));
  for (std::size_t m = 0; m < matrices.size(); ++m) {
    const DistanceMatrix& d = matrices[m];
    const QuantizedDistance* q = d.quantized();
    ASSERT_NE(q, nullptr);
    const bool wide = m + 1 == matrices.size();
    const std::size_t card = seq::cardinality(d.alphabet());
    for (std::size_t len = 1; len <= score::QProbe::kShortWindow; ++len) {
      vpt::WindowArena arena;
      for (std::size_t i = 0; i < kArenaRows; ++i) {
        arena.append(seq::CodeSpan(random_window(rng, len, card)));
      }
      ASSERT_TRUE(arena.layout_ok());
      const auto probe = random_window(rng, len, card);
      const score::QProbe qp(*q, probe.data(), len);
      // Shipped matrices fit byte lanes; the wide one must not.
      ASSERT_EQ(qp.shuffle_ready(), !wide) << "matrix " << m << " len " << len;
      const auto slots = scan_slots(rng);
      const auto span = static_cast<std::int64_t>(len) * 2 * 255;
      for (const std::int64_t qthresh : scan_thresholds(rng, span)) {
        const std::string what = "matrix " + std::to_string(m) + " len " +
                                 std::to_string(len) + " qthresh " +
                                 std::to_string(qthresh);
        std::vector<std::int64_t> want(slots.size());
        scalar.distance_batch(*q, probe.data(), arena.base(), arena.stride(),
                              slots.data(), slots.size(), len, qthresh,
                              want.data());
        if (avx2) {
          std::vector<std::int64_t> got(slots.size(), -42);
          const bool applied = avx2_table.probe_batch(
              qp, arena.base(), arena.stride(), slots.data(), slots.size(),
              qthresh, got.data());
          ASSERT_EQ(applied, qp.shuffle_ready() && qthresh <= qp.lane_limit())
              << what;
          if (applied) expect_matches_oracle(got, want, qthresh, what);
        }
        for (simd::Level level : simd::available_levels()) {
          simd::set_active_level(level);
          std::vector<std::int64_t> got(slots.size(), -42);
          qp.scan(arena.base(), arena.stride(), slots.data(), slots.size(),
                  qthresh, got.data());
          expect_matches_oracle(got, want, qthresh,
                                what + " level " + simd::level_name(level));
        }
      }
    }
  }
}

TEST(SimdKernels, XorKernelMatchesScalarOracle) {
  SimdLevelGuard guard;
  Rng rng(0x51D000A);
  const bool avx2 = avx2_runnable();
  const auto& avx2_table =
      score::qkernels_for(static_cast<int>(simd::Level::kAVX2));
  const auto& scalar = score::qkernels_for(0);
  const DistanceMatrix hamming = DistanceMatrix::hamming(seq::Alphabet::kDna);
  const DistanceMatrix weighted =
      random_exact_matrix(rng, seq::Alphabet::kDna, 8);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 1; len <= 16; ++len) lengths.push_back(len);
  for (std::size_t len : {17UL, 31UL, 32UL, 33UL, 48UL, 63UL, 64UL, 65UL}) {
    lengths.push_back(len);
  }
  // Cases: core probes on 2-bit rows (the fast path), probes containing N,
  // 4-bit rows (an N in the arena widens it) and a non-indicator matrix;
  // all but the first must decline.
  enum Case { kCore, kProbeN, kFourBit, kWeighted };
  for (const Case c : {kCore, kProbeN, kFourBit, kWeighted}) {
    const DistanceMatrix& d = c == kWeighted ? weighted : hamming;
    const QuantizedDistance* q = d.quantized();
    ASSERT_NE(q, nullptr);
    for (const std::size_t len : lengths) {
      vpt::WindowArena packed;
      packed.configure({.packed_bits = 2});
      vpt::WindowArena plain;
      for (std::size_t i = 0; i < kArenaRows; ++i) {
        auto w = random_window(rng, len, 4);
        if (c == kFourBit && i == kArenaRows / 2) w[0] = 4;  // N
        packed.append(seq::CodeSpan(w));
        plain.append(seq::CodeSpan(w));
      }
      ASSERT_EQ(packed.packed_bits(), c == kFourBit ? 4u : 2u);
      ASSERT_TRUE(packed.layout_ok());
      auto probe = random_window(rng, len, 4);
      if (c == kProbeN) probe[rng.below(len)] = 4;
      const score::QProbe qp(*q, probe.data(), len);
      const bool short_window = len <= score::QProbe::kMaxXorWindow;
      // The probe side is ready for 4-bit rows too; the kernel declines
      // those by their width.
      ASSERT_EQ(qp.xor_ready(), (c == kCore || c == kFourBit) && short_window)
          << "case " << c << " len " << len;
      const bool fast = c == kCore && short_window;
      const auto slots = scan_slots(rng);
      for (const std::int64_t qthresh :
           scan_thresholds(rng, static_cast<std::int64_t>(len) * 200)) {
        const std::string what = "case " + std::to_string(c) + " len " +
                                 std::to_string(len) + " qthresh " +
                                 std::to_string(qthresh);
        std::vector<std::int64_t> want(slots.size());
        scalar.distance_batch(*q, probe.data(), plain.base(), plain.stride(),
                              slots.data(), slots.size(), len, qthresh,
                              want.data());
        if (avx2) {
          std::vector<std::int64_t> got(slots.size(), -42);
          const bool applied = avx2_table.probe_batch_packed(
              qp, packed.base(), packed.stride(), packed.packed_bits(),
              slots.data(), slots.size(), qthresh, got.data());
          ASSERT_EQ(applied, fast) << what;
          if (applied) expect_matches_oracle(got, want, qthresh, what);
        }
        for (simd::Level level : simd::available_levels()) {
          simd::set_active_level(level);
          std::vector<std::int64_t> got(slots.size(), -42);
          qp.scan_packed(packed.base(), packed.stride(), packed.packed_bits(),
                         slots.data(), slots.size(), qthresh, got.data());
          expect_matches_oracle(got, want, qthresh,
                                what + " level " + simd::level_name(level));
        }
      }
    }
  }
}

// Levels without the short-window kernels decline every call.
TEST(SimdKernels, ShortWindowKernelsDeclineBelowAvx2) {
  const DistanceMatrix d = DistanceMatrix::hamming(seq::Alphabet::kDna);
  const std::vector<seq::Code> probe{0, 1, 2, 3, 0, 1, 2, 3};
  const score::QProbe qp(*d.quantized(), probe.data(), probe.size());
  ASSERT_TRUE(qp.shuffle_ready());
  ASSERT_TRUE(qp.xor_ready());
  vpt::WindowArena arena;
  arena.append(seq::CodeSpan(probe));
  const std::uint32_t slot = 0;
  std::int64_t out = -42;
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kSSE2, simd::Level::kNEON}) {
    const auto& k = score::qkernels_for(static_cast<int>(level));
    EXPECT_FALSE(
        k.probe_batch(qp, arena.base(), arena.stride(), &slot, 1, 8, &out));
    EXPECT_FALSE(k.probe_batch_packed(qp, arena.base(), arena.stride(), 2,
                                      &slot, 1, 8, &out));
  }
  EXPECT_EQ(out, -42);
}

// A 2-bit DNA arena must widen itself (2 -> 4 -> unpacked) the moment a
// code stops fitting, preserving every already-stored row exactly.
TEST(WindowArena, PackedArenaWidensOnOversizedCodes) {
  Rng rng(0x51D0007);
  vpt::WindowArena arena;
  arena.configure({.packed_bits = 2});
  const std::size_t len = 8;
  std::vector<std::vector<seq::Code>> shadow;
  for (std::size_t i = 0; i < 200; ++i) {
    shadow.push_back(random_window(rng, len, 4));
    arena.append(seq::CodeSpan(shadow.back()));
  }
  EXPECT_EQ(arena.packed_bits(), 2u);
  EXPECT_EQ(arena.row_bytes(), 2u);  // true 4x packing at len 8

  // An ambiguity code (N = 4) forces the 4-bit width.
  shadow.push_back({0, 1, 2, 3, 4, 3, 2, 1});
  arena.append(seq::CodeSpan(shadow.back()));
  EXPECT_EQ(arena.packed_bits(), 4u);
  ASSERT_TRUE(arena.layout_ok());

  // A code past 4 bits forces plain byte storage.
  shadow.push_back({0, 1, 2, 3, 17, 3, 2, 1});
  arena.append(seq::CodeSpan(shadow.back()));
  EXPECT_EQ(arena.packed_bits(), 0u);
  ASSERT_TRUE(arena.layout_ok());

  std::vector<seq::Code> decoded(len);
  for (std::size_t i = 0; i < shadow.size(); ++i) {
    arena.copy_row(static_cast<std::uint32_t>(i), decoded.data());
    ASSERT_EQ(decoded, shadow[i]) << "slot " << i;
    ASSERT_TRUE(arena.row_roundtrip_ok(static_cast<std::uint32_t>(i)));
  }
}

// A spilled arena under a tiny resident budget must evict (and re-fault)
// yet return exactly the same rows and batched-scan results as an
// all-resident arena holding the same windows.
TEST(WindowArena, SpilledArenaIsLosslessUnderEviction) {
  if (!vpt::BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  Rng rng(0x51D0008);
  const DistanceMatrix d = DistanceMatrix::hamming(seq::Alphabet::kDna);
  const QuantizedDistance* q = d.quantized();
  ASSERT_NE(q, nullptr);

  vpt::WindowArena::Config cfg;
  cfg.packed_bits = 2;
  cfg.segment_bytes = 4096;
  cfg.resident_budget = 8 * 4096;  // the kMinResidentSegments floor
  vpt::WindowArena spilled;
  spilled.configure(cfg);
  vpt::WindowArena plain;

  const std::size_t len = 8;
  const std::size_t windows = 40000;  // ~80 KB packed >> 32 KB budget
  for (std::size_t i = 0; i < windows; ++i) {
    const auto w = random_window(rng, len, 4);
    spilled.append(seq::CodeSpan(w));
    plain.append(seq::CodeSpan(w));
  }
  ASSERT_TRUE(spilled.spilled());
  ASSERT_TRUE(spilled.layout_ok());

  const auto stats = spilled.stats();
  EXPECT_GT(stats.store.evictions, 0u) << "budget never forced eviction";
  // Nothing is pinned here, so residency must respect the budget.
  EXPECT_LE(stats.resident_bytes, cfg.resident_budget);
  std::string why;
  EXPECT_TRUE(spilled.store_audit(&why)) << why;

  // Item-wise reads decode identically.
  std::vector<seq::Code> a(len), b(len);
  for (std::size_t i = 0; i < windows; i += 997) {
    spilled.copy_row(static_cast<std::uint32_t>(i), a.data());
    plain.copy_row(static_cast<std::uint32_t>(i), b.data());
    ASSERT_EQ(a, b) << "slot " << i;
  }

  // Batched scans over pinned runs match the all-resident oracle.
  const auto probe = random_window(rng, len, 5);
  const auto& kernels = score::qkernels();
  const auto& scalar = score::qkernels_for(0);
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<std::uint32_t> slots(256);
    for (auto& slot : slots) {
      slot = static_cast<std::uint32_t>(rng.below(windows));
    }
    const std::int64_t qthresh = static_cast<std::int64_t>(rng.below(9)) - 1;
    std::vector<std::int64_t> want(slots.size());
    scalar.distance_batch(*q, probe.data(), plain.base(), plain.stride(),
                          slots.data(), slots.size(), len, qthresh,
                          want.data());
    std::vector<std::int64_t> got(slots.size(), -42);
    {
      const auto pin = spilled.pin_scan(slots.data(), slots.size());
      kernels.distance_batch_packed(*q, probe.data(), spilled.base(),
                                    spilled.stride(), 2, slots.data(),
                                    slots.size(), len, qthresh, got.data());
    }
    for (std::size_t j = 0; j < slots.size(); ++j) {
      ASSERT_EQ(got[j] > qthresh, want[j] > qthresh) << "slot " << j;
      if (want[j] <= qthresh) {
        ASSERT_EQ(got[j], want[j]) << "slot " << j;
      }
    }
  }
  EXPECT_TRUE(spilled.store_audit(&why)) << why;
}

// Arena growth keeps slots stable, rows aligned, and contents intact.
TEST(WindowArena, GeometricGrowthPreservesLayoutAndContents) {
  Rng rng(0x51D0005);
  vpt::WindowArena arena;
  const std::size_t len = 8;
  std::vector<std::vector<seq::Code>> shadow;
  for (std::size_t i = 0; i < 5000; ++i) {
    auto w = random_window(rng, len, 4);
    const std::uint32_t slot = arena.append(seq::CodeSpan(w));
    EXPECT_EQ(slot, i);
    shadow.push_back(std::move(w));
  }
  ASSERT_TRUE(arena.layout_ok());
  EXPECT_EQ(arena.stride() % vpt::WindowArena::kRowAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.base()) %
                vpt::WindowArena::kBaseAlignment,
            0u);
  for (std::size_t i = 0; i < shadow.size(); ++i) {
    const auto span = arena.span(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(std::equal(span.begin(), span.end(), shadow[i].begin()));
  }
  // clear() keeps geometry and re-zeroes padding for the next epoch.
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.window_length(), len);
  const std::uint32_t slot = arena.append(seq::CodeSpan(shadow[0]));
  EXPECT_EQ(slot, 0u);
  ASSERT_TRUE(arena.layout_ok());
}

}  // namespace
}  // namespace mendel
