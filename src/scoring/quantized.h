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
// Leaf scans of short windows go through a QProbe, which carries per-probe
// tables for two AVX2 kernels that move whole rows instead of gathering
// residue by residue: a vpshufb lookup over transposed unpacked rows, and
// an XOR and popcount over 2-bit packed rows under an indicator metric.
// Whatever they decline falls back to the gather kernels of QKernelTable.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "src/sequence/sequence.h"

namespace mendel::score {

class QProbe;

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
  // The short-window kernels over a prepared probe (AVX2 only; the other
  // levels decline). Each has the contract of the entry above it and
  // returns false, writing nothing, when it does not apply to this probe,
  // row encoding or threshold:
  //   * probe_batch — unpacked rows of at most QProbe::kShortWindow
  //     residues whose probe-row cells fit a byte (QProbe::shuffle_ready)
  //     and a threshold the byte lanes answer exactly
  //     (qthresh <= QProbe::lane_limit);
  //   * probe_batch_packed — 2-bit rows under an indicator metric with a
  //     probe of DNA core bases only (QProbe::xor_ready).
  bool (*probe_batch)(const QProbe& p, const seq::Code* base,
                      std::size_t stride, const std::uint32_t* slots,
                      std::size_t count, std::int64_t qthresh,
                      std::int64_t* out);
  bool (*probe_batch_packed)(const QProbe& p, const std::uint8_t* base,
                             std::size_t stride, unsigned bits,
                             const std::uint32_t* slots, std::size_t count,
                             std::int64_t qthresh, std::int64_t* out);
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

  // Batched leaf scans with the contracts of QKernelTable::distance_batch
  // and distance_batch_packed: the short-window kernel when it applies,
  // otherwise the dispatched gather kernel.
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
  alignas(32) std::array<std::uint8_t, kShortWindow * 32> shuffle_{};
  std::array<std::uint32_t, kMaxXorWindow / 16> packed_{};
};

// The kernel table for simd::active_level() (one relaxed atomic read).
const QKernelTable& qkernels();
// The table for one specific level; levels that are not compiled in alias
// the scalar table. The fuzz test uses this to compare levels directly.
const QKernelTable& qkernels_for(int level);

}  // namespace mendel::score
