#include "src/align/banded.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/align/banded_detail.h"
#include "src/common/check.h"
#include "src/common/simd.h"

namespace mendel::align {

using detail::kFromIx;
using detail::kFromIy;
using detail::kFromM;
using detail::kNegInf;
using detail::kStop;

namespace {

struct Cell {
  int m = kNegInf;
  int ix = kNegInf;
  int iy = kNegInf;
};

}  // namespace

GappedAlignment banded_local_align(seq::CodeSpan query, seq::CodeSpan subject,
                                   const score::ScoringMatrix& scores,
                                   score::GapPenalties gaps,
                                   const BandedParams& params) {
  if (detail::banded_simd_compiled() &&
      simd::active_level() == simd::Level::kAVX2) {
    GappedAlignment got = detail::banded_local_align_simd(
        query, subject, scores, gaps, params);
#ifdef MENDEL_CHECKED
    // Kernel audit: every extension a checked build runs is also run by
    // the oracle, so pipeline and parity suites pin the kernel on real
    // extension shapes.
    const GappedAlignment want =
        banded_local_align_reference(query, subject, scores, gaps, params);
    MENDEL_CHECK(got == want,
                 "banded kernel audit: " << query.size() << " x "
                     << subject.size() << " center " << params.center_diag
                     << " radius " << params.band_radius << ": kernel score "
                     << got.hsp.score << " cigar " << got.cigar
                     << ", reference score " << want.hsp.score << " cigar "
                     << want.cigar);
#endif
    return got;
  }
  return banded_local_align_reference(query, subject, scores, gaps, params);
}

GappedAlignment banded_local_align_reference(seq::CodeSpan query,
                                             seq::CodeSpan subject,
                                             const score::ScoringMatrix& scores,
                                             score::GapPenalties gaps,
                                             const BandedParams& params) {
  GappedAlignment result;
  const std::size_t m = query.size();
  const std::size_t n = subject.size();
  if (m == 0 || n == 0) return result;

  const int open = gaps.open + gaps.extend;
  const int extend = gaps.extend;
  const std::ptrdiff_t radius =
      detail::clamp_band_radius(m, n, params.center_diag, params.band_radius);
  if (radius < 0) return result;
  // Band width in cells per row. Index b maps to subject position
  // s = q + center - radius + b (1-based DP coordinates).
  const std::size_t width = static_cast<std::size_t>(2 * radius + 1);

  std::vector<Cell> prev(width), curr(width);
  std::vector<std::uint8_t> tb((m + 1) * width, 0);

  auto band_start = [&](std::ptrdiff_t q) {
    return q + params.center_diag - radius;
  };

  int best = 0;
  std::size_t best_q = 0;
  std::ptrdiff_t best_s = 0;

  // Row 0: only matters as the diagonal source for row 1, where the
  // fresh-start rule already covers it; keep all cells dead.
  for (auto& c : prev) c = Cell{};

  for (std::size_t q = 1; q <= m; ++q) {
    const std::ptrdiff_t s_lo = band_start(static_cast<std::ptrdiff_t>(q));
    for (std::size_t b = 0; b < width; ++b) {
      curr[b] = Cell{};
      const std::ptrdiff_t s = s_lo + static_cast<std::ptrdiff_t>(b);
      if (s < 1 || s > static_cast<std::ptrdiff_t>(n)) continue;

      const int sub = scores.score(
          query[q - 1], subject[static_cast<std::size_t>(s - 1)]);
      std::uint8_t packed = 0;

      // Ix from (q-1, s): previous row, band index b+1 (offset shifts by 1).
      int ix = kNegInf;
      if (b + 1 < width) {
        const Cell& up = prev[b + 1];
        const int ix_open = up.m == kNegInf ? kNegInf : up.m - open;
        const int ix_ext = up.ix == kNegInf ? kNegInf : up.ix - extend;
        if (ix_ext >= ix_open) {
          ix = ix_ext;
          packed |= kFromIx << 2;
        } else {
          ix = ix_open;
          packed |= kFromM << 2;
        }
      }

      // Iy from (q, s-1): same row, band index b-1.
      int iy = kNegInf;
      if (b >= 1) {
        const Cell& left = curr[b - 1];
        const int iy_open = left.m == kNegInf ? kNegInf : left.m - open;
        const int iy_ext = left.iy == kNegInf ? kNegInf : left.iy - extend;
        if (iy_ext >= iy_open) {
          iy = iy_ext;
          packed |= kFromIy << 4;
        } else {
          iy = iy_open;
          packed |= kFromM << 4;
        }
      }

      // M from (q-1, s-1): previous row, same band index b. Out-of-band or
      // dead diagonal means a fresh start (contribution 0, kStop).
      const Cell& diag = prev[b];
      int best_prev = 0;
      std::uint8_t m_src = kStop;
      const std::ptrdiff_t diag_s = s - 1;
      const bool diag_in_range =
          diag_s >= 0 && diag_s <= static_cast<std::ptrdiff_t>(n);
      if (diag_in_range) {
        if (diag.m != kNegInf && diag.m > best_prev) {
          best_prev = diag.m;
          m_src = kFromM;
        }
        if (diag.ix != kNegInf && diag.ix > best_prev) {
          best_prev = diag.ix;
          m_src = kFromIx;
        }
        if (diag.iy != kNegInf && diag.iy > best_prev) {
          best_prev = diag.iy;
          m_src = kFromIy;
        }
      }
      int mm = best_prev + sub;
      if (mm <= 0) {
        mm = kNegInf;  // dead: local alignments never keep negative prefixes
        m_src = kStop;
        packed &= ~0x3u;
      }
      packed |= m_src;

      curr[b] = Cell{mm, ix, iy};
      tb[q * width + b] = packed;

      if (mm != kNegInf && mm > best) {
        best = mm;
        best_q = q;
        best_s = s;
      }
    }
    std::swap(prev, curr);
  }

  return detail::banded_traceback(query, subject, tb.data(), width,
                                  params.center_diag, radius, best, best_q,
                                  best_s);
}

}  // namespace mendel::align
