// Shared internals of the banded local aligner: the band clamp, the packed
// traceback cell encoding and the traceback walk itself. Both the scalar
// reference (banded.cpp) and the AVX2 row kernel (banded_simd.cpp) clamp the
// band the same way and write the same (m + 1) * width traceback layout, so
// they share one decoder.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/align/alignment.h"
#include "src/sequence/sequence.h"

namespace mendel::align::detail {

enum : std::uint8_t {
  kStop = 0,
  kFromM = 1,
  kFromIx = 2,  // gap in subject (consumes query residue)
  kFromIy = 3,  // gap in query (consumes subject residue)
};

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

// The smallest band radius that covers the same cells of the m x n DP
// rectangle as `radius` around `center_diag`, or -1 when the band misses
// the rectangle. The rectangle's diagonals s - q run from 1 - m to n - 1;
// a wider band adds only cells outside it, which are dead, so clamping is
// exact and bounds the DP at (m + 1) * (2 * (m + n) + 1) cells whatever
// radius a caller asks for. Requires m, n >= 1.
inline std::ptrdiff_t clamp_band_radius(std::size_t m, std::size_t n,
                                        std::ptrdiff_t center_diag,
                                        std::size_t radius) {
  const auto lowest = 1 - static_cast<std::ptrdiff_t>(m);
  const auto highest = static_cast<std::ptrdiff_t>(n) - 1;
  // Distance from the center to the far end of the diagonal range; at
  // least 0 because highest - lowest = m + n - 2 >= 0.
  const std::ptrdiff_t reach =
      std::max(center_diag - lowest, highest - center_diag);
  const auto clamped = static_cast<std::ptrdiff_t>(
      std::min(radius, static_cast<std::size_t>(reach)));
  if (center_diag - clamped > highest || center_diag + clamped < lowest) {
    return -1;
  }
  return clamped;
}

// Traceback over the packed band matrix: bits 0-1 are the M source, bits
// 2-3 the Ix source, bits 4-5 the Iy source. `band_start_of(q)` = q +
// center_diag - radius maps band index b to subject position s =
// band_start_of(q) + b (1-based DP coordinates). Row q of `tb` starts at
// q * width; row 0 is never read.
inline GappedAlignment banded_traceback(
    seq::CodeSpan query, seq::CodeSpan subject, const std::uint8_t* tb,
    std::size_t width,
    std::ptrdiff_t center_diag, std::ptrdiff_t radius, int best,
    std::size_t best_q, std::ptrdiff_t best_s) {
  GappedAlignment result;
  if (best == 0) return result;

  auto band_start = [&](std::ptrdiff_t q) { return q + center_diag - radius; };

  std::size_t q = best_q;
  std::ptrdiff_t s = best_s;
  std::uint8_t state = kFromM;
  std::vector<std::pair<std::size_t, char>> rev_runs;
  auto push_op = [&](char op) {
    if (!rev_runs.empty() && rev_runs.back().second == op) {
      ++rev_runs.back().first;
    } else {
      rev_runs.emplace_back(1, op);
    }
  };

  std::size_t identities = 0, columns = 0, gap_columns = 0;
  while (q > 0 && s > 0) {
    const std::ptrdiff_t b = s - band_start(static_cast<std::ptrdiff_t>(q));
    const std::uint8_t packed = tb[q * width + static_cast<std::size_t>(b)];
    if (state == kFromM) {
      const std::uint8_t src = packed & 0x3;
      ++columns;
      if (query[q - 1] == subject[static_cast<std::size_t>(s - 1)]) {
        ++identities;
      }
      push_op('M');
      --q;
      --s;
      if (src == kStop) break;
      state = src;
    } else if (state == kFromIx) {
      const std::uint8_t src = (packed >> 2) & 0x3;
      ++columns;
      ++gap_columns;
      push_op('D');
      --q;
      state = src == kFromIx ? kFromIx : kFromM;
    } else {
      const std::uint8_t src = (packed >> 4) & 0x3;
      ++columns;
      ++gap_columns;
      push_op('I');
      --s;
      state = src == kFromIy ? kFromIy : kFromM;
    }
  }

  std::string cigar;
  for (auto it = rev_runs.rbegin(); it != rev_runs.rend(); ++it) {
    cigar += std::to_string(it->first);
    cigar += it->second;
  }

  result.hsp.q_begin = q;
  result.hsp.q_end = best_q;
  result.hsp.s_begin = static_cast<std::size_t>(s);
  result.hsp.s_end = static_cast<std::size_t>(best_s);
  result.hsp.score = best;
  result.columns = columns;
  result.identities = identities;
  result.gap_columns = gap_columns;
  result.cigar = std::move(cigar);
  return result;
}

}  // namespace mendel::align::detail
