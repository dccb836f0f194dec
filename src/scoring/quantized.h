// Quantized distance LUT + the dispatched integer window kernels.
//
// The DistanceMatrix cells Mendel actually ships are exact small rationals:
// Hamming is {0, 1}, and the symmetrized substitution-derived metrics are
// multiples of 1/2 (the (B[a][a]+B[b][b])/2 - B[a][b] transform halves
// integer scores; Floyd–Warshall repair only ever adds such values). A
// QuantizedDistance captures that exactly: every cell times a power-of-two
// `scale` is a non-negative integer <= 65535, stored twice — as uint16 for
// the scalar/NEON kernels and as int32 for the AVX2 gather kernels. Window
// distances accumulate in integers and divide by `scale` once at the end,
// which is exact in double (the scalar double kernel sums the same
// half-integer values, all exactly representable), so the quantized path
// returns bit-identical distances to the scalar reference — pinned by
// tests/simd_kernel_test.cpp.
//
// Matrices that are not exactly representable (a test matrix with 0.3
// cells, a user-loaded matrix with irrational entries) simply get no
// QuantizedDistance; every caller falls back to the checked double
// reference automatically.
//
// Early-abandon contract: because cells are non-negative, "some prefix sum
// exceeds bound" is equivalent to "the full sum exceeds bound", so the
// bounded kernels may test the running total once per vector chunk instead
// of once per residue and still make exactly the scalar kernel's
// keep/abandon decision. Abandoning kernels return a value > bound;
// within-bound results are exact.
//
// Leaf scans of short windows go through QProbes, which carry per-probe
// tables for two AVX2 kernels that move whole rows instead of gathering
// residue by residue: a vpshufb lookup over transposed unpacked rows, and
// an XOR and popcount over 2-bit packed rows under an indicator metric.
// Both score a batch of probes per call, moving each row once for the
// whole batch. Whatever they decline falls back to the gather kernels of
// QKernelTable.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "src/sequence/sequence.h"

namespace mendel::score {

class QProbe;

// Where a multi-probe leaf scan writes. Probe b of the batch owns a
// `rows`-long slice of each array (`rows` a multiple of 64, at least the
// scanned count):
//   * pass[b * rows / 64 + j / 64], bit j % 64 — row j's distance is
//     <= that probe's qthresh;
//   * dist[b * rows + j] — row j's distance, exact where its bit is set.
struct QScanOut {
  std::uint64_t* pass;
  std::uint8_t* dist;
  std::size_t rows;
};

class QuantizedDistance {
 public:
  // Mirrors ScoringMatrix::kMaxCodes (a static_assert in quantized.cpp
  // keeps them in sync without an include cycle).
  static constexpr std::size_t kMaxCodes = 24;
  static constexpr std::size_t kCells = kMaxCodes * kMaxCodes;

  // Builds the quantized twin of a flattened row-major double LUT
  // (cells[a * kMaxCodes + b]); null when any cell is not exactly
  // q / scale for a non-negative integer q <= 65535 and scale in
  // {1, 2, 4, 8}. `cardinality` is the alphabet size actually used — the
  // mismatch-indicator detection (the byte-compare Hamming fast path)
  // only inspects the codes that can appear in windows.
  static std::shared_ptr<const QuantizedDistance> build(
      const double* cells, std::size_t cardinality);

  std::int64_t scale() const { return scale_; }
  // True when d(a, b) == (a == b ? 0 : 1/scale) over the alphabet: window
  // distance is then a scaled Hamming distance and the kernels count
  // mismatching bytes 16/32 at a time instead of walking the LUT.
  bool indicator() const { return indicator_; }
  const std::uint16_t* lut16() const { return lut16_.data(); }
  const std::int32_t* lut32() const { return lut32_.data(); }

  // Scaled integer -> the exact double the scalar kernel would produce.
  double to_double(std::int64_t q) const {
    return static_cast<double>(q) / static_cast<double>(scale_);
  }

  // Largest integer threshold such that (q > threshold) == (q/scale >
  // bound) for every integer q >= 0; +/-infinity and negative bounds
  // included.
  std::int64_t threshold(double bound) const;

 private:
  QuantizedDistance() = default;

  std::int64_t scale_ = 1;
  bool indicator_ = false;
  std::array<std::uint16_t, kCells> lut16_{};
  std::array<std::int32_t, kCells> lut32_{};
};

// Dispatched kernel table, one per simd::Level. All kernels take scaled
// integer thresholds and return scaled integer distances; `a` is the probe
// side (its codes index LUT rows).
struct QKernelTable {
  // Full window distance.
  std::int64_t (*distance)(const QuantizedDistance& q, const seq::Code* a,
                           const seq::Code* b, std::size_t length);
  // Early-abandoning variant: exact when <= qthresh, otherwise any value
  // > qthresh.
  std::int64_t (*distance_bounded)(const QuantizedDistance& q,
                                   const seq::Code* a, const seq::Code* b,
                                   std::size_t length, std::int64_t qthresh);
  // Batched leaf scan: scores `count` arena windows (rows of `base`, row j
  // at base + slots[j] * stride) against one probe. out[j] is exact when
  // <= qthresh; once every window in a vector chunk is past qthresh the
  // remaining positions may be skipped (each such out[j] is > qthresh).
  // Requires the arena layout guarantees of vpt::WindowArena: base 32-byte
  // aligned with a readable 32-byte guard tail after the last row.
  void (*distance_batch)(const QuantizedDistance& q, const seq::Code* probe,
                         const seq::Code* base, std::size_t stride,
                         const std::uint32_t* slots, std::size_t count,
                         std::size_t length, std::int64_t qthresh,
                         std::int64_t* out);
  // Bit-packed variant of distance_batch: arena rows hold `bits`-wide codes
  // (bits in {2, 4}; residue i occupies bits [i*bits, (i+1)*bits) of the
  // row, little-endian within each byte) and the decode is fused into the
  // scan — the vector kernels gather one 32-bit word per lane and peel
  // 32/bits residues out of it before regathering. The probe stays
  // unpacked (its codes index LUT rows). Packing is lossless, so the
  // keep/abandon decisions and all kept values are identical to running
  // distance_batch over the decoded rows — pinned by the packed fuzz in
  // tests/simd_kernel_test.cpp. Same arena guard-tail requirements.
  void (*distance_batch_packed)(const QuantizedDistance& q,
                                const seq::Code* probe,
                                const std::uint8_t* base, std::size_t stride,
                                unsigned bits, const std::uint32_t* slots,
                                std::size_t count, std::size_t length,
                                std::int64_t qthresh, std::int64_t* out);
  // The short-window kernels (AVX2 only; the other levels decline every
  // probe). Each scores the same rows against probes[0 .. probe_count)
  // (at most QProbe::kMaxBatch, all of probes[0]'s length), probe b
  // against qthresh[b], gathering (and, for the shuffle kernel,
  // transposing) each 32-row block once for the batch, and writes the
  // pass masks and byte distances of QScanOut. Each probe is served or
  // declined on its own; the result has bit b set for every probe served,
  // and a declined probe's slices are not written. A probe is served by
  //   * probes_batch — unpacked rows of at most QProbe::kShortWindow
  //     residues when its LUT rows fit a byte (QProbe::shuffle_ready) and
  //     its threshold is one the byte lanes answer exactly
  //     (qthresh <= QProbe::lane_limit);
  //   * probes_batch_packed — 2-bit rows under an indicator metric when
  //     it holds DNA core bases only (QProbe::xor_ready).
  std::uint64_t (*probes_batch)(const QProbe* const* probes,
                                const std::int64_t* qthresh,
                                std::size_t probe_count,
                                const seq::Code* base, std::size_t stride,
                                const std::uint32_t* slots, std::size_t count,
                                const QScanOut& out);
  std::uint64_t (*probes_batch_packed)(const QProbe* const* probes,
                                       const std::int64_t* qthresh,
                                       std::size_t probe_count,
                                       const std::uint8_t* base,
                                       std::size_t stride, unsigned bits,
                                       const std::uint32_t* slots,
                                       std::size_t count,
                                       const QScanOut& out);
};

// One probe of an n-NN lookup, with the tables the short-window kernels
// need. A lookup scores every candidate against the same probe, so the
// tables are built once per lookup (StorageNode builds one per subquery)
// rather than once per bucket scan:
//   * shuffle tables — per probe position, the probe's LUT row as byte
//     cells, split into codes 0-15 and 16-23 because vpshufb looks up 16
//     entries at a time;
//   * packed words — the probe at 2 bits per residue, for the XOR and
//     popcount scan of 2-bit rows.
// The probe codes are borrowed and must outlive the QProbe.
class QProbe {
 public:
  // Longest window the shuffle kernel takes (two 8-residue row halves).
  static constexpr std::size_t kShortWindow = 16;
  // Longest window the XOR kernel takes (four 32-bit words of 2-bit codes).
  static constexpr std::size_t kMaxXorWindow = 64;
  // Most probes one multi-probe scan takes (one bit each in its result).
  static constexpr std::size_t kMaxBatch = 64;

  QProbe(const QuantizedDistance& q, const seq::Code* codes,
         std::size_t length);

  std::size_t length() const { return length_; }

  bool shuffle_ready() const { return shuffle_ready_; }
  // Byte lanes add with unsigned saturation, so a lane holds
  // min(sum, 255). They answer exactly for any qthresh up to this limit:
  // every threshold when no window can pass 255, otherwise thresholds
  // below 255 (a saturated lane is then > qthresh).
  std::int64_t lane_limit() const { return lane_limit_; }
  // 32 bytes per probe position: cells for codes 0-15, then codes 16-23
  // and zero fill.
  const std::uint8_t* shuffle_table() const { return shuffle_.data(); }

  bool xor_ready() const { return xor_ready_; }
  // The probe packed like a 2-bit arena row, read as little-endian words.
  const std::uint32_t* packed_words() const { return packed_.data(); }

  // This probe's dispatched gather kernels (QKernelTable::distance_batch
  // and distance_batch_packed): the scan of a probe the short-window
  // kernels decline.
  void scan(const seq::Code* base, std::size_t stride,
            const std::uint32_t* slots, std::size_t count,
            std::int64_t qthresh, std::int64_t* out) const;
  void scan_packed(const std::uint8_t* base, std::size_t stride,
                   unsigned bits, const std::uint32_t* slots,
                   std::size_t count, std::int64_t qthresh,
                   std::int64_t* out) const;

 private:
  const QuantizedDistance* q_;
  const seq::Code* codes_;
  std::size_t length_;
  bool shuffle_ready_ = false;
  bool xor_ready_ = false;
  std::int64_t lane_limit_ = 0;
  // 16-byte aligned, so no 16-byte table load splits a cache line, and no
  // more: a stronger alignment would put every batch's QProbe vector
  // through aligned operator new, whose split-off remainders fragment the
  // heap the NN cache lives in.
  alignas(16) std::array<std::uint8_t, kShortWindow * 32> shuffle_{};
  std::array<std::uint32_t, kMaxXorWindow / 16> packed_{};
};

// The kernel table for simd::active_level() (one relaxed atomic read).
const QKernelTable& qkernels();
// The table for one specific level; levels that are not compiled in alias
// the scalar table. The fuzz test uses this to compare levels directly.
const QKernelTable& qkernels_for(int level);

}  // namespace mendel::score
