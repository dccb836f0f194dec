// Mendel storage node: one actor playing every server-side role of the
// symmetric architecture (paper §V-B: "any node in the cluster can perform
// as a query's entry point and generates identical results").
//
// Roles, all hosted in this class:
//   * block store     — a dynamically balanced local vp-tree over the
//                       inverted-index blocks this node owns (§V-A3);
//   * sequence shard  — home-node storage of full reference sequences,
//                       serving FetchRange requests during anchor and
//                       gapped extension;
//   * searcher        — per-subquery n-NN lookups with identity and
//                       c-score filtering (§V-B);
//   * group entry     — fan-out/fan-in within its group, seed merging on
//                       (sequence, diagonal), coalesced range fetches, and
//                       ungapped anchor extension (group_entry.cpp);
//   * coordinator     — system entry point: subquery construction, group
//                       routing via the vp-prefix tree, cross-group anchor
//                       aggregation, gapped extension, E-value ranking
//                       (coordinator.cpp).
// The first three roles, dispatch, persistence and audit: storage_node.cpp.
// Both aggregating roles end in one fetch→extend stage (fetch_plan.h).
//
// The class is transport-agnostic: the same code runs under all three
// transports. All mutable state is only touched from handle(), which every
// transport calls from a single thread per node. Pool tasks run in two
// places: the subquery fan-out in on_node_search only *reads* the vp-tree
// and arena (each with a private probe metric) into disjoint slots of a
// local vector, and the fetch stage's extension tasks write disjoint slots
// of their pending entry. Counters and the NN cache stay handler-only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <mutex>

#include "src/cluster/topology.h"
#include "src/common/check.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/mendel/block_metric.h"
#include "src/mendel/fetch_plan.h"
#include "src/mendel/protocol.h"
#include "src/mendel/snapshot.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scoring/distance.h"
#include "src/scoring/karlin.h"
#include "src/vptree/dynamic_vptree.h"
#include "src/vptree/prefix_tree.h"
#include "src/vptree/window_arena.h"

namespace mendel::core {

// The settings a StorageNode reads that a deployment chooses per node.
// None of them changes a ranked hit; they trade memory against work.
// StorageNodeConfig, RuntimeOptions and NodeHostOptions each
// hold one record, so every setting is stated and defaulted here only.
struct NodeSettings {
  // Entries held by the node-local subquery NN cache (0 disables caching).
  // Query windows are stride-k k-mers, so concurrent and repeated queries
  // share windows; a hit skips the vp-tree search entirely.
  std::size_t nn_cache_capacity = 4096;
  // Resident-byte budget for the window arena. 0 (the default) keeps the
  // original all-resident heap arena; > 0 spills rows to a memory-mapped
  // BlockStore whose LRU-pinned hot set is bounded by this many bytes
  // (src/vptree/block_store.h). Search results are byte-identical either
  // way — only residency changes.
  std::size_t arena_resident_budget = 0;
  // Bit-pack arena rows when the alphabet fits: 2 bits for the DNA core
  // (auto-widening to 4 when an ambiguity base appears), 4 bits for any
  // alphabet with at most 16 codes. Lossless — the packed kernels decode
  // the very same codes — so this only shrinks memory, never results.
  bool arena_packing = true;
  // Spill-segment granularity for the block store; 0 keeps the default
  // (BlockStore::kDefaultSegmentBytes). Smaller segments make the LRU
  // budget meaningful for small per-node arenas (benches, tests).
  std::size_t arena_segment_bytes = 0;
  // Score-bounded pruning of coordinator-side gapped extension: bins whose
  // best possible banded score provably cannot place a hit in the final
  // top max_hits (or under the E-value cutoff) skip their fetch and DP
  // entirely. The bound is exact — ranked results are identical with the
  // switch off — which MENDEL_CHECKED builds verify by extending every bin
  // and comparing rankings. Off restores the extend-everything dataflow.
  bool prune_extensions = true;
};

struct StorageNodeConfig {
  const cluster::Topology* topology = nullptr;
  const vpt::VpPrefixTree* prefix_tree = nullptr;
  const score::DistanceMatrix* distance = nullptr;
  // Shared registry for the node's latency histograms and counters
  // (required; nodes of one process share one).
  obs::MetricsRegistry* metrics = nullptr;
  seq::Alphabet alphabet = seq::Alphabet::kProtein;
  std::size_t bucket_capacity = kDefaultBucketCapacity;
  // Total residues across the indexed database; set by the client after
  // indexing (used for Karlin–Altschul E-values at the coordinator).
  std::uint64_t database_residues = 0;
  // Shared worker pool for intra-node subquery fan-out in on_node_search.
  // nullptr keeps the serial path. Either way the seed lists are merged in
  // subquery order, so replies are byte-identical for every pool size.
  ThreadPool* search_pool = nullptr;
  // MENDEL_CHECKED builds audit the two-tier DHT placement of freshly
  // admitted blocks after every insert batch (senders route with the
  // shared topology, so misplacement means corrupted routing state).
  // Unit tests that address a node directly with unrouted blocks can opt
  // out; the vp-tree structural audit still runs. No effect outside
  // MENDEL_CHECKED builds.
  bool checked_placement_audit = true;
  NodeSettings node;
};

// Per-node work counters (telemetry for benches and tests).
struct NodeCounters {
  std::uint64_t blocks_inserted = 0;
  std::uint64_t sequences_stored = 0;
  // Items restored from a snapshot via load(), counted separately so the
  // inserted/stored counters keep reporting only this session's work.
  std::uint64_t blocks_restored = 0;
  std::uint64_t sequences_restored = 0;
  std::uint64_t nn_searches = 0;
  // Subquery searches answered from the node-local NN cache (subset of
  // nn_searches) and the complement that ran a fresh vp-tree search.
  std::uint64_t nn_cache_hits = 0;
  std::uint64_t nn_cache_misses = 0;
  std::uint64_t seeds_emitted = 0;
  std::uint64_t fetches_served = 0;
  std::uint64_t group_queries = 0;
  std::uint64_t queries_coordinated = 0;
  std::uint64_t anchors_extended = 0;
  std::uint64_t gapped_extensions = 0;
  // Extension-pipeline work avoided: kFetchRange requests saved by
  // coalescing overlapping per-seed ranges, and anchors whose bins were
  // score-bound pruned out of gapped extension.
  std::uint64_t fetch_ranges_coalesced = 0;
  std::uint64_t anchors_pruned = 0;
  // Frames rejected at the trust boundary: framing failures (truncated /
  // trailing bytes), unknown message types, and semantically poisonous
  // values (out-of-alphabet codes, inverted intervals). The node drops the
  // frame and keeps serving.
  std::uint64_t decode_errors = 0;
};

class StorageNode final : public net::Actor {
 public:
  StorageNode(net::NodeId id, StorageNodeConfig config);

  // Decodes and dispatches one frame. Malformed frames (DecodeError — bad
  // framing, unknown type, or semantic validation failure) are counted in
  // counters().decode_errors / `net.decode_errors` and dropped; any other
  // exception (CheckError, ProtocolError) still propagates because it
  // indicates an internal bug, not hostile input.
  void handle(const net::Message& message, net::Context& ctx) override;

  net::NodeId id() const { return id_; }
  std::size_t block_count() const { return tree_.size(); }
  std::size_t sequence_count() const { return sequences_.size(); }
  // Highest stored sequence id + 1 (0 when the shard is empty); the client
  // uses the cluster-wide max as its id watermark after load_index().
  seq::SequenceId max_sequence_id_plus_one() const;
  const NodeCounters& counters() const { return counters_; }
  // Diagnostic text of the most recently rejected frame ("" when none).
  const std::string& last_decode_error() const { return last_decode_error_; }

  // Outstanding query state machines (leak detection in tests: after every
  // query completed or was cancelled, both must be zero on every node).
  std::size_t pending_group_queries() const { return group_pending_.size(); }
  std::size_t pending_coordinator_queries() const {
    return coord_pending_.size();
  }
  std::size_t nn_cache_entries() const MENDEL_EXCLUDES(nn_cache_mu_) {
    std::lock_guard lock(nn_cache_mu_);
    return nn_cache_.size();
  }

  // Spans recorded for traced queries, awaiting a kCollectTrace broadcast.
  const obs::SpanBuffer& span_buffer() const { return span_buffer_; }

  // Arena storage telemetry: resident/packed bytes plus the block-store
  // hit/miss/eviction/fault counters (zeros for all-resident arenas).
  vpt::WindowArena::Stats arena_stats() const { return arena_.stats(); }

  // Membership view for fault tolerance: nodes marked down are excluded
  // from fan-outs and home-node selection. (The paper leaves fault
  // tolerance as future work; Mendel ships a static-membership version.)
  void set_down(net::NodeId node, bool down);

  // Updated by the client after (incremental) indexing.
  void set_database_residues(std::uint64_t residues) {
    config_.database_residues = residues;
  }

  // --- persistence (paper §VII-B future work: save pre-indexed data) ----
  // This node's snapshot shard (format: src/mendel/snapshot.h); its views
  // point into the node, so write it before the node changes.
  SnapshotShard save() const;
  // Restores a shard saved for this node id (InvalidArgument otherwise).
  void load(const SnapshotShard& shard);

  // --- invariant verification (src/verify, tools/mendel_verify) ---------
  // Materialized copies of every stored block, tree iteration order.
  std::vector<Block> blocks() const;
  // Ascending ids of the sequences this shard stores.
  std::vector<seq::SequenceId> stored_sequence_ids() const;
  // Deep node-local audit: local vp-tree structure (balance, occupancy,
  // mu admissibility), block/arena/dedup-key bookkeeping, two-tier DHT
  // placement of every stored block (tier 1: the window re-hashes to this
  // node's group; tier 2: the intra-group ring owners include this node)
  // and the repository ring homes of every stored sequence. Returns
  // human-readable violations, at most `max_violations`; empty = sound.
  // Under MENDEL_CHECKED this runs automatically after rebalance and
  // load (and a fresh-blocks-only variant after every insert batch).
  std::vector<std::string> audit(std::size_t max_violations = 32) const;

 private:
  // Stored sequence shard entry.
  struct StoredSequence {
    std::string name;
    std::vector<seq::Code> codes;
  };

  // Seeds merged on one (sequence, diagonal) run, pre-extension.
  struct MergedSeed {
    std::uint32_t sequence = 0;
    std::uint32_t q_begin = 0;
    std::uint32_t q_end = 0;
    std::uint32_t s_begin = 0;
  };

  // Per-query state of both aggregating roles: whom to answer, the query,
  // the nodes whose fan-in replies are outstanding, the trace context for
  // downstream spans, the fan-in wait origin, and the fetch→extend stage.
  struct PendingHead {
    net::NodeId reply_to = 0;
    QueryParams params;
    std::vector<seq::Code> query;
    std::set<net::NodeId> awaiting;
    obs::TraceContext trace;
    double created = 0.0;
    FetchStage fetch;

    // Crosses `from` off the fan-in; a reply from a node never asked, or
    // one already answered, is a DecodeError. True when it was the last.
    bool cross_off(net::NodeId from, const char* what);
  };

  // ---- group entry pending state ----
  struct PendingGroupQuery : PendingHead {
    std::vector<Seed> seeds;
    std::vector<MergedSeed> merged;
    // Fetch token = plan index; each range serves its member seeds, whose
    // extension writes only their own anchor slots.
    std::vector<CoalescedRange> fetch_plan;
    std::vector<std::optional<Anchor>> anchor_slots;
  };

  // ---- coordinator pending state ----
  struct SequenceBin {
    std::uint32_t sequence = 0;
    std::vector<Anchor> anchors;
    // Score-bounded pruning decision (made pre-fetch, deterministic): a
    // pruned bin provably cannot place a hit in the final ranking, so its
    // fetch and banded DP are skipped. MENDEL_CHECKED builds still extend
    // pruned bins and assert the two rankings match.
    bool pruned = false;
    // Streaming per-bin extension outcome, written by at most one task.
    std::vector<align::AlignmentHit> hits;
    std::uint32_t dp_runs = 0;
  };
  struct PendingQuery : PendingHead {
    // Group results bin by sequence as they stream in; per-sequence
    // merging at the last arrival equals a global merge (merging never
    // crosses sequences).
    std::map<std::uint32_t, std::vector<Anchor>> binned;
    std::vector<SequenceBin> bins;  // fetch token = bin index
  };

  // Handlers, one per message type.
  // handle() minus the bad-frame guard: decodes, validates, and routes.
  void dispatch(const net::Message& message, net::Context& ctx);
  void on_store_sequence(const net::Message& message);
  void on_insert_blocks(const net::Message& message);
  void on_fetch_range(const net::Message& message, net::Context& ctx);
  void on_query_request(const net::Message& message, net::Context& ctx);
  void on_group_query(const net::Message& message, net::Context& ctx);
  void on_node_search(const net::Message& message, net::Context& ctx);
  void on_node_search_result(const net::Message& message, net::Context& ctx);
  void on_fetch_range_result(const net::Message& message, net::Context& ctx);
  void on_group_result(const net::Message& message, net::Context& ctx);
  void on_rebalance(net::Context& ctx);
  void on_collect_trace(const net::Message& message, net::Context& ctx);

  // Records one span for a traced query and returns its id so callers can
  // parent downstream work on it; no-op (returns 0) when `trace` is off.
  std::uint64_t record_span(const char* name, std::uint64_t query_id,
                            const obs::TraceContext& trace, double start,
                            std::uint64_t duration_ns, std::uint64_t value);
  // Virtual-clock deltas (Context::now() differences) as span nanoseconds.
  static std::uint64_t delta_ns(double begin, double end);
  // Resolves a wire-carried matrix name; an unknown one is a DecodeError.
  static const score::ScoringMatrix& matrix_from_wire(const std::string& name);

  // Stage transitions (group_entry.cpp, coordinator.cpp): the fan-in's last
  // reply plans and starts the fetch stage, each admitted range runs
  // extend_range, the stage's last reply runs finish_query. *_reply_empty
  // answers with no anchors / hits and drops the role's pending entry.
  void group_entry_merge_and_fetch(std::uint64_t query_id,
                                   PendingGroupQuery& pending,
                                   net::Context& ctx);
  void coordinator_bin_and_fetch(std::uint64_t query_id,
                                 PendingQuery& pending, net::Context& ctx);
  // Pure compute, on pool threads or inline: writes only the token's own
  // slots (its members' anchor_slots / one SequenceBin); `wall_timing`
  // routes the phase histogram (off under the simulator).
  void extend_range(PendingGroupQuery& pending, std::size_t token,
                    bool wall_timing);
  void extend_range(PendingQuery& pending, std::size_t token,
                    bool wall_timing);
  void finish_query(std::uint64_t query_id, PendingGroupQuery& pending,
                    net::Context& ctx);
  void finish_query(std::uint64_t query_id, PendingQuery& pending,
                    net::Context& ctx);
  void group_entry_reply_empty(std::uint64_t query_id, net::NodeId to,
                               net::Context& ctx);
  void coordinator_reply_empty(std::uint64_t query_id, net::NodeId to,
                               net::Context& ctx);

  // First alive home node of a sequence key.
  net::NodeId pick_sequence_home(std::uint64_t key) const;
  bool is_down(net::NodeId node) const { return down_.contains(node); }
  std::vector<net::NodeId> alive_group_members(std::uint32_t group) const;

  // Identity of a stored block in block_keys_.
  static std::uint64_t block_key(std::uint32_t sequence, std::uint32_t start) {
    return (static_cast<std::uint64_t>(sequence) << 32) | start;
  }
  // An empty local vp-tree over arena_, seeded per node id.
  vpt::DynamicVpTree<BlockRef, BlockRefMetric> make_tree() const {
    return vpt::DynamicVpTree<BlockRef, BlockRefMetric>(
        BlockRefMetric{config_.distance, &arena_},
        {.bucket_capacity = config_.bucket_capacity,
         .seed = 0x6e6f6465ULL + id_});
  }
  // Admits blocks this node does not yet store: dedups against
  // block_keys_, appends windows to the arena, returns the new refs.
  std::vector<BlockRef> admit_blocks(std::vector<Block> blocks);

  // Checks the two-tier placement of one stored block (see audit()).
  void audit_placement(const BlockRef& ref,
                       std::vector<std::string>& out) const;
#ifdef MENDEL_CHECKED
  // MENDEL_CHECKED hooks: throw CheckError on the first violation.
  void checked_audit(const char* where) const;
  // Insert-time variant: audits only the freshly admitted refs, because a
  // mid-rebalance node may legitimately still hold stale blocks while the
  // eviction wave drains; the fresh ones were routed with the current
  // topology and must already be placed correctly.
  void checked_audit_fresh(const std::vector<BlockRef>& fresh) const;
  // Search-time cross-check: each window's top n by a scalar scan of every
  // stored block, sorted by (distance, sequence, start) within the cap,
  // must equal the walk's neighbour list `got[b]`.
  void checked_nearest(
      std::span<const vpt::Window* const> windows, std::size_t n, double cap,
      const std::vector<std::vector<vpt::Neighbor<BlockRef>>>& got) const;
#endif
  // Reconstitutes the wire-format Block of a stored ref (codec paths).
  Block materialize(const BlockRef& ref) const;

  // Filtered n-NN searches of a batch of subquery windows over the local
  // tree, in one walk (DynamicVpTree::nearest_batch_with); result b is
  // windows[b]'s seed list. Thread-safe with respect to other searches (the
  // tree is only read; the probes ride in a per-call metric). Emitted seeds
  // carry query_offset = 0 so each result is cacheable across subqueries
  // and queries that share the window.
  std::vector<std::vector<Seed>> search_subqueries(
      std::span<const vpt::Window* const> windows, const QueryParams& params,
      const score::ScoringMatrix& matrix) const;
  // Cache key: window codes + every parameter that shapes the seed list.
  static std::string nn_cache_key(const vpt::Window& window,
                                  const QueryParams& params);
  void invalidate_nn_cache() MENDEL_EXCLUDES(nn_cache_mu_) {
    std::lock_guard lock(nn_cache_mu_);
    nn_cache_.clear();
  }

  net::NodeId id_;
  StorageNodeConfig config_;
  double max_residue_distance_ = 0.0;  // cached distance->max_entry()
  // SoA payload store; must outlive (and is declared before) the tree
  // whose metric points at it.
  vpt::WindowArena arena_;
  vpt::DynamicVpTree<BlockRef, BlockRefMetric> tree_;
  // block_key()s of stored blocks, so re-deliveries during replication
  // and rebalance stay idempotent.
  std::unordered_set<std::uint64_t> block_keys_;
  std::unordered_map<std::uint32_t, StoredSequence> sequences_;
  std::set<net::NodeId> down_;
  NodeCounters counters_;
  std::string last_decode_error_;

  std::map<std::uint64_t, PendingGroupQuery> group_pending_;
  std::map<std::uint64_t, PendingQuery> coord_pending_;

  // Node-local subquery NN cache: key = window codes + search params,
  // value = the filtered seed list with query_offset zeroed. Mutated only
  // from the handler thread (lookups before the pool fan-out, insertions
  // after it joins); the mutex — uncontended on that path — makes the
  // telemetry reads other threads perform (nn_cache_entries) well-defined
  // and lets Clang's thread-safety analysis verify every access.
  // Invalidated whenever the local block set changes (insert, rebalance,
  // load).
  mutable std::mutex nn_cache_mu_;
  std::unordered_map<std::string, std::vector<Seed>> nn_cache_
      MENDEL_GUARDED_BY(nn_cache_mu_);

  // Observability: span storage for traced queries and the instrument
  // handles, resolved from config_.metrics once at construction.
  obs::SpanBuffer span_buffer_;
  // Dispatch-time histogram sampling (handler thread only): every
  // kHandlerSample-th message pays the two clock reads.
  static constexpr std::uint64_t kHandlerSample = 16;
  std::uint64_t handler_ticks_ = 0;
  obs::LatencyHistogram* h_handler_ = nullptr;
  obs::LatencyHistogram* h_search_ = nullptr;
  obs::LatencyHistogram* h_subquery_ = nullptr;
  obs::LatencyHistogram* h_group_fanin_ = nullptr;
  obs::LatencyHistogram* h_coord_fanin_ = nullptr;
  // Extension-phase compute latency (per coalesced range / per bin chain);
  // recorded from pool threads, which the histograms' relaxed atomics allow.
  obs::LatencyHistogram* h_group_extend_ = nullptr;
  obs::LatencyHistogram* h_coord_extend_ = nullptr;
  // Kernel path visibility: which SIMD level this process dispatches to
  // and how often searches take the batched vs scalar-fallback path.
  obs::Counter* c_batched_scans_ = nullptr;
  obs::Counter* c_scalar_fallbacks_ = nullptr;
  // Frames rejected by the bad-frame guard (mirror of
  // counters_.decode_errors for the cluster-wide registry).
  obs::Counter* c_decode_errors_ = nullptr;
};

}  // namespace mendel::core
