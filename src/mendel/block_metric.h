// What a storage node's local vp-tree stores (BlockRef) and the metric it
// searches with (BlockRefMetric): the node's n-NN lookup minus the walk,
// which is vpt::DynamicVpTree's. Kept apart from StorageNode so the leaf-scan
// microbenchmarks drive the very code a node runs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"
#include "src/obs/metrics.h"
#include "src/scoring/distance.h"
#include "src/scoring/quantized.h"
#include "src/sequence/sequence.h"
#include "src/vptree/dynamic_vptree.h"
#include "src/vptree/window_arena.h"

namespace mendel::core {

// Block identity plus the slot of its window payload in the node's SoA
// arena. 12 bytes instead of a Block with a heap-allocated window, so tree
// rebuilds shuffle indices and bucket scans read one contiguous code buffer.
struct BlockRef {
  // Sentinel slot marking a search probe; the ref's `start` indexes the
  // searching metric's probe windows rather than the arena.
  static constexpr std::uint32_t kProbeSlot = 0xffffffffu;

  seq::SequenceId sequence = seq::kInvalidSequenceId;
  std::uint32_t start = 0;
  std::uint32_t slot = 0;
};

// Metric adapter: L1 window distance between arena-resident windows, plus
// the search hooks of vpt::DynamicVpTree. A search ranks in the quantized
// twin's scaled integers (rank_domain), evaluates vantage points with the
// probe's integer kernel (rank_bounded), and scans whole leaf buckets with
// the SIMD multi-probe kernels (scan_leaf), admitting rows straight from
// the kernels' byte distances into each probe's vpt::TopN. Lengths are
// validated once at admission (arena append) and search entry, so the
// kernels skip the per-call check.
struct BlockRefMetric {
  // Bucket chunk handed to one batched kernel call (a multiple of 64: the
  // multi-probe kernels' pass masks are 64-row words).
  static constexpr std::size_t kBatchChunk = 256;

  const score::DistanceMatrix* distance;
  const vpt::WindowArena* arena;
  // The search's probe windows: probe ref {0, b, kProbeSlot} has codes
  // probes[b]. The fields from here on are null on the tree's internal
  // metric, which only ever compares stored blocks and never searches;
  // StorageNode::search_subqueries' per-search metric sets them all.
  const seq::CodeSpan* probes = nullptr;
  // Kernel observability (kernel.batched_scans / kernel.scalar_fallbacks).
  obs::Counter* batched_scans = nullptr;
  obs::Counter* scalar_fallbacks = nullptr;
  // The probes' kernel tables (qprobes[b] for probes[b]), built once per
  // search; null when the matrix has no quantized twin or the arena is too
  // large for the kernels' 32-bit gather offsets (gatherable()).
  const score::QProbe* qprobes = nullptr;

  // Whether the integer kernels can address every row of `arena`.
  static bool gatherable(const vpt::WindowArena& arena) {
    return arena.size() * arena.stride() <
           static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) -
               vpt::WindowArena::kGuardTail;
  }

  // Item-wise code access. The all-resident unpacked arena hands out
  // direct row pointers (the original zero-copy path); packed or spilled
  // arenas decode into per-thread scratch — `side` keeps the two operands
  // of a distance call in separate buffers. Copying (rather than pointing)
  // is what makes item-wise access safe against concurrent LRU eviction:
  // the bytes are captured under the store lock.
  const seq::Code* codes(const BlockRef& ref, int side) const {
    if (ref.slot == BlockRef::kProbeSlot) return probes[ref.start].data();
    if (!arena->packed() && !arena->spilled()) return arena->at(ref.slot);
    thread_local std::vector<seq::Code> scratch[2];
    auto& buf = scratch[side];
    buf.resize(arena->window_length());
    arena->copy_row(ref.slot, buf.data());
    return buf.data();
  }
  double operator()(const BlockRef& a, const BlockRef& b) const {
    return score::window_distance_unchecked(*distance, codes(a, 0),
                                            codes(b, 1),
                                            arena->window_length());
  }
  double bounded(const BlockRef& a, const BlockRef& b, double bound) const {
    return score::window_distance_bounded_unchecked(
        *distance, codes(a, 0), codes(b, 1), arena->window_length(), bound);
  }

  // n-NN tie key: block identity (sequence, start), unique per node (dedup
  // keys), so the tie class at the n-th-neighbor boundary resolves
  // identically on every tree shape — required for sim/threaded transport
  // parity on DNA, whose 4-letter alphabet makes exact window-distance
  // ties pervasive.
  std::uint64_t tie_key(const BlockRef& ref) const {
    return (static_cast<std::uint64_t>(ref.sequence) << 32) | ref.start;
  }
  // Ranks are the quantized twin's scaled integer distances (q / scale is
  // the exact double distance); without a twin, the doubles' bit patterns.
  vpt::RankDomain rank_domain() const {
    const score::QuantizedDistance* q = distance->quantized();
    return {q != nullptr ? q->scale() : 0};
  }
  // Vantage-point evaluation: the probe's integer kernel against one
  // stored row, abandoning past `limit`.
  std::uint64_t rank_bounded(const BlockRef& probe, const BlockRef& item,
                             std::uint64_t limit) const {
    MENDEL_DCHECK(probe.slot == BlockRef::kProbeSlot,
                  "rank_bounded: target is not a search probe");
    if (qprobes == nullptr) {
      const vpt::RankDomain domain = rank_domain();
      return domain.rank(bounded(probe, item, domain.distance(limit)));
    }
    const auto pin = arena->pin_scan(&item.slot, 1);
    std::int64_t qd = 0;
    scan_rows(qprobes[probe.start], &item.slot, 1,
              static_cast<std::int64_t>(limit), &qd);
    return static_cast<std::uint64_t>(qd);
  }

  // Leaf scan (the vp-tree's scan_leaf hook): offers each of the k targets
  // every item within its TopN's threshold, in item order. Each bucket
  // chunk is scored against all targets by one multi-probe kernel call, so
  // rows are moved once per chunk rather than once per target; a target
  // the kernel declines takes its QProbe's gather-kernel scan for that
  // chunk. Rows are admitted from the kernels' integer distances: the test
  // against the target's threshold is one integer compare, and an offer
  // is an inline heap update on (distance, tie key) that returns the next
  // threshold. Falls back to item-wise bounded() when qprobes is null.
  void scan_leaf(const BlockRef* const* targets, std::size_t k,
                 const BlockRef* items, std::size_t count,
                 vpt::TopN<BlockRef>* const* tops) const {
    constexpr std::size_t kMax = score::QProbe::kMaxBatch;
    for (std::size_t first = 0; first < k; first += kMax) {
      scan_group(targets + first, tops + first, std::min(kMax, k - first),
                 items, count);
    }
  }

 private:
  // QProbe::scan or scan_packed, whichever the arena's rows need.
  void scan_rows(const score::QProbe& probe, const std::uint32_t* slots,
                 std::size_t count, std::int64_t qthresh,
                 std::int64_t* out) const {
    if (arena->packed()) {
      probe.scan_packed(arena->base(), arena->stride(), arena->packed_bits(),
                        slots, count, qthresh, out);
    } else {
      probe.scan(arena->base(), arena->stride(), slots, count, qthresh, out);
    }
  }

  // scan_leaf over at most kMaxBatch targets.
  void scan_group(const BlockRef* const* targets,
                  vpt::TopN<BlockRef>* const* tops, std::size_t k,
                  const BlockRef* items, std::size_t count) const {
    constexpr std::size_t kMax = score::QProbe::kMaxBatch;
    // search_subqueries is the only caller: every target is one of its
    // probes.
    for (std::size_t t = 0; t < k; ++t) {
      MENDEL_DCHECK(targets[t]->slot == BlockRef::kProbeSlot,
                    "scan_leaf: target " << t << " is not a search probe");
    }
    if (qprobes == nullptr) {
      if (distance->quantized() == nullptr) scalar_fallbacks->add();
      const vpt::RankDomain domain = rank_domain();
      for (std::size_t t = 0; t < k; ++t) {
        vpt::TopN<BlockRef>& top = *tops[t];
        for (std::size_t j = 0; j < count; ++j) {
          const double d = bounded(*targets[t], items[j],
                                   domain.distance(top.threshold()));
          top.offer(domain.rank(d), tie_key(items[j]), &items[j]);
        }
      }
      return;
    }
    std::array<const score::QProbe*, kMax> probe;
    for (std::size_t t = 0; t < k; ++t) {
      probe[t] = &qprobes[targets[t]->start];
    }
    const score::QKernelTable& kernels = score::qkernels();
    std::array<std::uint32_t, kBatchChunk> slots;
    std::array<std::int64_t, kBatchChunk> qdists;
    std::array<std::int64_t, kMax> qthresh;
    // Zeroed: the kernels leave a declined target's slice unwritten, and
    // the empty-mask test below reads every target's words.
    std::array<std::uint64_t, kMax * kBatchChunk / 64> pass{};
    std::array<std::uint8_t, kMax * kBatchChunk> dist;
    const score::QScanOut out{pass.data(), dist.data(), kBatchChunk};
    for (std::size_t offset = 0; offset < count;) {
      const std::size_t run = std::min(count - offset, kBatchChunk);
      const BlockRef* chunk = items + offset;
      for (std::size_t j = 0; j < run; ++j) {
        slots[j] = chunk[j].slot;
        MENDEL_DCHECK(slots[j] != BlockRef::kProbeSlot,
                      "scan_leaf: a probe sentinel sits in a tree bucket");
      }
      // Spilled arenas: pin the chunk's rows once for every target so the
      // kernels can never touch an evicted (PROT_NONE) segment mid-scan;
      // no-op for heap arenas. Packed arenas route to the fused-decode
      // kernels.
      const auto pin = arena->pin_scan(slots.data(), run);
      for (std::size_t t = 0; t < k; ++t) {
        qthresh[t] = static_cast<std::int64_t>(tops[t]->threshold());
      }
      const std::uint64_t served =
          arena->packed()
              ? kernels.probes_batch_packed(
                    probe.data(), qthresh.data(), k, arena->base(),
                    arena->stride(), arena->packed_bits(), slots.data(), run,
                    out)
              : kernels.probes_batch(probe.data(), qthresh.data(), k,
                                     arena->base(), arena->stride(),
                                     slots.data(), run, out);
      batched_scans->add(k);
      // The targets with a pass bit in this chunk, plus any the kernel
      // declined. Once thresholds settle most targets pass no row of a
      // chunk, so admission skips them without a branch per target.
      const std::size_t run_words = (run + 63) / 64;
      std::uint64_t visit = 0;
      for (std::size_t t = 0; t < k; ++t) {
        const std::uint64_t* mask = pass.data() + t * (kBatchChunk / 64);
        std::uint64_t any = ~served >> t & 1;
        for (std::size_t w = 0; w < run_words; ++w) any |= mask[w];
        visit |= static_cast<std::uint64_t>(any != 0) << t;
      }
      for (std::uint64_t left = visit; left != 0; left &= left - 1) {
        const auto t = static_cast<std::size_t>(std::countr_zero(left));
        vpt::TopN<BlockRef>& top = *tops[t];
        std::uint64_t threshold = top.threshold();
        auto admit = [&](std::size_t j, std::uint64_t qd) {
          if (qd <= threshold) {
            threshold = top.offer(qd, tie_key(chunk[j]), &chunk[j]);
          }
        };
        if ((served >> t) & 1) {
          const std::uint64_t* words = pass.data() + t * (kBatchChunk / 64);
          const std::uint8_t* row_dist = dist.data() + t * kBatchChunk;
          for (std::size_t w = 0; w < run_words; ++w) {
            for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
              const std::size_t j =
                  w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
              admit(j, row_dist[j]);
            }
          }
          continue;
        }
        scan_rows(*probe[t], slots.data(), run, qthresh[t], qdists.data());
        for (std::size_t j = 0; j < run; ++j) {
          admit(j, static_cast<std::uint64_t>(qdists[j]));
        }
      }
      offset += run;
    }
  }
};

}  // namespace mendel::core
