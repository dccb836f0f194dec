#include "src/mendel/storage_node.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/error.h"
#include "src/common/simd.h"
#include "src/common/stopwatch.h"
#include "src/scoring/matrix.h"

namespace mendel::core {

// Deterministic under the simulator because both endpoints come from the
// virtual clock.
std::uint64_t StorageNode::delta_ns(double begin, double end) {
  const double seconds = end - begin;
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
}

// Any peer can put any string in the params, so the InvalidArgument from
// matrix_by_name is re-raised as DecodeError for the bad-frame guard.
const score::ScoringMatrix& StorageNode::matrix_from_wire(
    const std::string& name) {
  try {
    return score::matrix_by_name(name);
  } catch (const InvalidArgument& e) {
    throw DecodeError(std::string("params: ") + e.what());
  }
}

StorageNode::StorageNode(net::NodeId id, StorageNodeConfig config)
    : id_(id),
      config_(config),
      tree_(make_tree()) {
  require(config_.topology != nullptr, "StorageNode: null topology");
  require(config_.prefix_tree != nullptr, "StorageNode: null prefix tree");
  require(config_.distance != nullptr, "StorageNode: null distance matrix");
  require(config_.metrics != nullptr, "StorageNode: null metrics registry");
  max_residue_distance_ = config_.distance->max_entry();
  // Arena encoding and storage are fixed before the first admitted block.
  // DNA starts 2-bit (its unambiguous core) and widens automatically when
  // an N appears; any other alphabet with <= 16 codes packs at 4 bits;
  // wider alphabets (protein's 24 codes) stay byte-per-residue.
  {
    vpt::WindowArena::Config acfg;
    if (config_.node.arena_packing) {
      const std::size_t core = seq::core_cardinality(config_.alphabet);
      const std::size_t full = seq::cardinality(config_.alphabet);
      if (core <= 4 && full <= 16) {
        acfg.packed_bits = 2;
      } else if (full <= 16) {
        acfg.packed_bits = 4;
      }
    }
    acfg.resident_budget = config_.node.arena_resident_budget;
    if (config_.node.arena_segment_bytes > 0) {
      acfg.segment_bytes = config_.node.arena_segment_bytes;
    }
    arena_.configure(acfg);
  }
  // Handles resolved once; the per-message path never touches the
  // registry's name table.
  obs::MetricsRegistry& metrics = *config_.metrics;
  h_handler_ = &metrics.histogram("node.handler_seconds");
  h_search_ = &metrics.histogram("node.search_seconds");
  h_subquery_ = &metrics.histogram("node.subquery_seconds");
  h_group_fanin_ = &metrics.histogram("group.fanin_wait_seconds");
  h_coord_fanin_ = &metrics.histogram("coord.fanin_wait_seconds");
  h_group_extend_ = &metrics.histogram("group.extend_seconds");
  h_coord_extend_ = &metrics.histogram("coord.extend_seconds");
  c_batched_scans_ = &metrics.counter("kernel.batched_scans");
  c_scalar_fallbacks_ = &metrics.counter("kernel.scalar_fallbacks");
  c_decode_errors_ = &metrics.counter("net.decode_errors");
  // Process-wide dispatch level; every node in a process reports the
  // same value, which is exactly the property worth asserting on.
  metrics.gauge("kernel.simd_level")
      .set(static_cast<std::int64_t>(simd::active_level()));
}

std::uint64_t StorageNode::record_span(const char* name,
                                       std::uint64_t query_id,
                                       const obs::TraceContext& trace,
                                       double start,
                                       std::uint64_t duration_ns,
                                       std::uint64_t value) {
  if (!trace.on()) return 0;
  obs::SpanRecord span;
  span.name = name;
  span.node = id_;
  span.query_id = query_id;
  span.span_id = span_buffer_.next_span_id(id_);
  span.parent_span = trace.parent_span;
  span.start = start;
  span.duration_ns = duration_ns;
  span.value = value;
  const std::uint64_t span_id = span.span_id;
  span_buffer_.add(std::move(span));
  return span_id;
}

std::vector<BlockRef> StorageNode::admit_blocks(
    std::vector<Block> blocks) {
  std::vector<BlockRef> fresh;
  fresh.reserve(blocks.size());
  for (const Block& block : blocks) {
    if (!block_keys_.insert(block_key(block.sequence, block.start)).second) {
      continue;
    }
    const std::uint32_t slot = arena_.append(block.window);
    fresh.push_back({block.sequence, block.start, slot});
  }
  return fresh;
}

Block StorageNode::materialize(const BlockRef& ref) const {
  MENDEL_DCHECK(ref.slot < arena_.size(),
                "node " << id_ << ": block (seq " << ref.sequence
                        << ", start " << ref.start << ") references arena "
                        << "slot " << ref.slot << " past the arena end "
                        << arena_.size());
  Block block;
  block.sequence = ref.sequence;
  block.start = ref.start;
  block.window.resize(arena_.window_length());
  arena_.copy_row(ref.slot, block.window.data());
  return block;
}

void StorageNode::set_down(net::NodeId node, bool down) {
  if (down) {
    down_.insert(node);
  } else {
    down_.erase(node);
  }
}

seq::SequenceId StorageNode::max_sequence_id_plus_one() const {
  seq::SequenceId watermark = 0;
  for (const auto& [sid, stored] : sequences_) {
    watermark = std::max(watermark, sid + 1);
  }
  return watermark;
}

std::vector<net::NodeId> StorageNode::alive_group_members(
    std::uint32_t group) const {
  std::vector<net::NodeId> alive;
  for (net::NodeId node : config_.topology->group_nodes(group)) {
    if (!is_down(node)) alive.push_back(node);
  }
  return alive;
}

net::NodeId StorageNode::pick_sequence_home(std::uint64_t key) const {
  for (net::NodeId node : config_.topology->sequence_homes(key)) {
    if (!is_down(node)) return node;
  }
  return net::kClientNode;  // sentinel: no alive home
}

void StorageNode::handle(const net::Message& message, net::Context& ctx) {
  // Sampled 1-in-16: a query dispatches on the order of a thousand messages
  // (per-subquery fetches), so two clock reads on every one is measurable
  // against the observability overhead budget. Uniform sampling keeps the
  // distribution shape; unsampled messages hand ScopedTimer no histogram,
  // so it skips the clock.
  const bool time_dispatch = (handler_ticks_++ % kHandlerSample) == 0;
  const obs::ScopedTimer dispatch_timer(time_dispatch ? h_handler_ : nullptr);
  try {
    dispatch(message, ctx);
  } catch (const DecodeError& e) {
    // Bad frame off the wire: reject, count, keep serving. Everything else
    // (CheckError, ProtocolError, bad_alloc) propagates — those mean an
    // internal bug or resource exhaustion, not hostile input.
    ++counters_.decode_errors;
    c_decode_errors_->add(1);
    last_decode_error_ = net::describe(message) + ": " + e.what();
  }
}

void StorageNode::dispatch(const net::Message& message, net::Context& ctx) {
  switch (message.type) {
    case kStoreSequence:
      on_store_sequence(message);
      return;
    case kInsertBlocks:
      on_insert_blocks(message);
      return;
    case kFetchRange:
      on_fetch_range(message, ctx);
      return;
    case kQueryRequest:
      on_query_request(message, ctx);
      return;
    case kGroupQuery:
      on_group_query(message, ctx);
      return;
    case kNodeSearch:
      on_node_search(message, ctx);
      return;
    case kNodeSearchResult:
      on_node_search_result(message, ctx);
      return;
    case kFetchRangeResult:
      on_fetch_range_result(message, ctx);
      return;
    case kGroupResult:
      on_group_result(message, ctx);
      return;
    case kCancelQuery: {
      // Join extension tasks before erasing an entry they reference (fault
      // path: a home node dies mid-fetch and the client's stall detector
      // cancels while extensions of arrived ranges are still running).
      const auto cancel = [&](auto& pending_map) {
        auto it = pending_map.find(message.request_id);
        if (it == pending_map.end()) return;
        it->second.fetch.join();
        pending_map.erase(it);
      };
      cancel(group_pending_);
      cancel(coord_pending_);
      return;
    }
    case kRebalance:
      on_rebalance(ctx);
      return;
    case kCollectTrace:
      on_collect_trace(message, ctx);
      return;
    case kSetNodeDown: {
      const auto payload =
          decode_payload<SetNodeDownPayload>(message.payload);
      set_down(payload.node, payload.down);
      return;
    }
    case kSetResidues:
      set_database_residues(
          decode_payload<SetResiduesPayload>(message.payload).residues);
      return;
    default:
      // Unknown type is a bad frame, not an internal bug: a hostile or
      // version-skewed peer can send any type value, so this must land in
      // the counted-drop path rather than tearing the node down.
      throw DecodeError("StorageNode " + std::to_string(id_) +
                        ": unknown message type " +
                        std::to_string(message.type));
  }
}

// --- indexing -----------------------------------------------------------

void StorageNode::on_store_sequence(const net::Message& message) {
  auto payload = decode_payload<StoreSequencePayload>(message.payload);
  // Stored codes later index distance LUTs (fetch ranges feed extension),
  // so out-of-alphabet codes must never be admitted.
  validate_codes(payload.codes, seq::cardinality(config_.alphabet),
                 "store_sequence");
  StoredSequence stored;
  stored.name = std::move(payload.name);
  stored.codes = std::move(payload.codes);
  sequences_[payload.sequence] = std::move(stored);
  ++counters_.sequences_stored;
}

void StorageNode::on_insert_blocks(const net::Message& message) {
  auto payload = decode_payload<InsertBlocksPayload>(message.payload);
  // Ingress validation ahead of admit_blocks: arena append treats a length
  // mismatch or empty window as caller error (InvalidArgument), and packed
  // arenas must never see out-of-alphabet codes.
  const std::size_t cardinality = seq::cardinality(config_.alphabet);
  const std::size_t expect = arena_.window_length() != 0
                                 ? arena_.window_length()
                                 : (payload.blocks.empty()
                                        ? 0
                                        : payload.blocks.front().window.size());
  for (const Block& block : payload.blocks) {
    if (block.window.empty() || block.window.size() != expect) {
      throw DecodeError("insert_blocks: block (seq " +
                        std::to_string(block.sequence) + ", start " +
                        std::to_string(block.start) + ") window length " +
                        std::to_string(block.window.size()) +
                        " != expected " + std::to_string(expect));
    }
    validate_codes(block.window, cardinality, "insert_blocks");
  }
  // Deduplicate: replication and rebalance may redeliver blocks this node
  // already stores.
  auto fresh = admit_blocks(std::move(payload.blocks));
  counters_.blocks_inserted += fresh.size();
  if (!fresh.empty()) {
    // The block set changed: cached seed lists may miss the new blocks.
    invalidate_nn_cache();
#ifdef MENDEL_CHECKED
    const auto admitted = fresh;
#endif
    tree_.insert_batch(std::move(fresh));
#ifdef MENDEL_CHECKED
    checked_audit_fresh(admitted);
#endif
  }
}

// --- sequence repository --------------------------------------------------

void StorageNode::on_fetch_range(const net::Message& message,
                                 net::Context& ctx) {
  auto request = decode_payload<FetchRangePayload>(message.payload);
  ++counters_.fetches_served;

  FetchRangeResultPayload reply;
  reply.purpose = request.purpose;
  reply.token = request.token;
  reply.sequence = request.sequence;

  auto it = sequences_.find(request.sequence);
  if (it != sequences_.end()) {
    const auto& codes = it->second.codes;
    const auto size = static_cast<std::uint32_t>(codes.size());
    const std::uint32_t start = std::min(request.start, size);
    // 64-bit sum: start + length may overflow 32 bits for hostile inputs.
    const auto end = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::uint64_t{request.start} + request.length, size));
    reply.start = start;
    reply.sequence_length = size;
    reply.sequence_name = it->second.name;
    reply.codes.assign(codes.begin() + start, codes.begin() + end);
  }
  record_span("node.fetch", message.request_id, request.trace, ctx.now(), 0,
              reply.codes.size());
  ctx.send(message.from, kFetchRangeResult, message.request_id,
           encode_payload(reply));
}

// --- observability -------------------------------------------------------

void StorageNode::on_collect_trace(const net::Message& message,
                                   net::Context& ctx) {
  TraceReportPayload report;
  report.spans = span_buffer_.take(message.request_id);
  ctx.send(message.from, kTraceReport, message.request_id,
           encode_payload(report));
}

// --- searcher ------------------------------------------------------------------

std::string StorageNode::nn_cache_key(const vpt::Window& window,
                                      const QueryParams& params) {
  // Window codes first, then the raw bytes of every knob that shapes the
  // seed list (n-NN count, filters, matrix). Equality on the full key makes
  // collisions impossible; windows are fixed-length so the layout is
  // unambiguous.
  std::string key;
  key.reserve(window.size() + sizeof(std::uint32_t) + 2 * sizeof(double) +
              params.matrix.size() + 1);
  key.append(reinterpret_cast<const char*>(window.data()), window.size());
  key.append(reinterpret_cast<const char*>(&params.n), sizeof(params.n));
  key.append(reinterpret_cast<const char*>(&params.identity),
             sizeof(params.identity));
  key.append(reinterpret_cast<const char*>(&params.c_score),
             sizeof(params.c_score));
  key.append(params.matrix);
  return key;
}

std::vector<std::vector<Seed>> StorageNode::search_subqueries(
    std::span<const vpt::Window* const> windows, const QueryParams& params,
    const score::ScoringMatrix& matrix) const {
  std::vector<std::vector<Seed>> seeds(windows.size());
  if (tree_.empty()) return seeds;
  // The probes ride in a per-call metric so concurrent searches never
  // share mutable state; the tree itself is only read. Probe b is the
  // sentinel ref {0, b, kProbeSlot}.
  std::vector<seq::CodeSpan> spans;
  std::vector<score::QProbe> qprobes;
  std::vector<BlockRef> targets;
  spans.reserve(windows.size());
  targets.reserve(windows.size());
  const auto* q = config_.distance->quantized();
  const bool kernels = q != nullptr && BlockRefMetric::gatherable(arena_);
  if (kernels) qprobes.reserve(windows.size());
  for (std::size_t b = 0; b < windows.size(); ++b) {
    spans.emplace_back(*windows[b]);
    if (kernels) {
      qprobes.emplace_back(*q, windows[b]->data(), windows[b]->size());
    }
    targets.push_back({0, static_cast<std::uint32_t>(b), BlockRef::kProbeSlot});
  }
  const BlockRefMetric metric{config_.distance,   &arena_,
                              spans.data(),       c_batched_scans_,
                              c_scalar_fallbacks_,
                              kernels ? qprobes.data() : nullptr};
  // Exact radius cap from the identity filter: a candidate passing
  // identity >= i differs in at most (1-i)*k positions, each costing at
  // most max_entry — anything farther is filtered later anyway, so the
  // n-NN search can discard it up front.
  const double cap = (1.0 - params.identity) *
                     static_cast<double>(arena_.window_length()) *
                     max_residue_distance_;
  // n comes off the wire unchecked; the walk bounds its per-probe state
  // by the stored block count.
  const auto neighbors =
      tree_.nearest_batch_with(metric, std::span<const BlockRef>(targets),
                               params.n, cap);
#ifdef MENDEL_CHECKED
  checked_nearest(windows, params.n, cap, neighbors);
#endif
  std::vector<seq::Code> decoded(arena_.window_length());
  for (std::size_t b = 0; b < windows.size(); ++b) {
    const vpt::Window& window = *windows[b];
    seeds[b].reserve(neighbors[b].size());
    for (const auto& neighbor : neighbors[b]) {
      const BlockRef& block = *neighbor.item;
      arena_.copy_row(block.slot, decoded.data());
      const seq::CodeSpan arena_window{decoded.data(), decoded.size()};
      const double identity = score::percent_identity(window, arena_window);
      if (identity < params.identity) continue;
      const double c =
          score::consecutivity_score(window, arena_window, matrix);
      if (c < params.c_score) continue;
      Seed seed;
      seed.sequence = block.sequence;
      seed.subject_start = block.start;
      seed.query_offset = 0;  // caller rebinds to the subquery's offset
      seed.length = static_cast<std::uint32_t>(arena_window.size());
      seed.identity = identity;
      seed.c_score = c;
      seeds[b].push_back(seed);
    }
  }
  return seeds;
}

void StorageNode::on_node_search(const net::Message& message,
                                 net::Context& ctx) {
  auto request = decode_payload<NodeSearchPayload>(message.payload);
  const auto& matrix = matrix_from_wire(request.params.matrix);
  const std::size_t count = request.subqueries.size();
  // Window codes feed unchecked distance kernels (LUT rows sized to the
  // alphabet); lengths are checked against the arena inside the cache loop
  // below, codes here.
  for (const Subquery& sub : request.subqueries) {
    validate_codes(sub.window, seq::cardinality(config_.alphabet),
                   "node_search subquery");
  }
  // Span duration is wall time under the threaded transport only; under
  // virtual time a measured duration would differ run to run and break
  // trace byte-stability.
  const bool measure_span = request.trace.on() && !ctx.virtual_time();
  Stopwatch search_watch;
  const obs::ScopedTimer search_timer(h_search_);

  // Phase 1 (handler thread): resolve each subquery against the NN cache.
  // Only misses pay for a vp-tree search.
  std::vector<const std::vector<Seed>*> cached(count, nullptr);
  std::vector<std::string> keys(count);
  std::vector<std::size_t> misses;
  const bool cache_enabled = config_.node.nn_cache_capacity > 0;
  {
    // The handler thread is the cache's only mutator, so the pointers
    // captured here stay valid past the lock: nothing erases or rehashes
    // the map until the phase-3 insertion below, which runs after the last
    // cached[] read.
    std::lock_guard cache_lock(nn_cache_mu_);
    for (std::size_t i = 0; i < count; ++i) {
      const Subquery& sub = request.subqueries[i];
      ++counters_.nn_searches;
      if (tree_.empty()) continue;
      // Lengths are checked once here; the metric then runs unchecked
      // kernels for every distance evaluation of the search. A mismatch is
      // a bad frame (any peer can send any window), not an invariant.
      if (sub.window.size() != arena_.window_length()) {
        throw DecodeError(
            "node_search: subquery " + std::to_string(i) +
            " window length " + std::to_string(sub.window.size()) +
            " != arena window length " +
            std::to_string(arena_.window_length()));
      }
      if (cache_enabled) {
        keys[i] = nn_cache_key(sub.window, request.params);
        auto it = nn_cache_.find(keys[i]);
        if (it != nn_cache_.end()) {
          ++counters_.nn_cache_hits;
          cached[i] = &it->second;
          continue;
        }
        ++counters_.nn_cache_misses;
      }
      misses.push_back(i);
    }
  }

  // Phase 2: search the cache misses kSearchBatch at a time, one tree walk
  // per batch (so each leaf chunk is moved once for the whole batch), with
  // the batches fanned across the shared pool (serial without one). Each
  // task writes its own slots of `fresh`; the join publishes the writes
  // back to the handler thread. Each subquery of a batch records an equal
  // share of the batch's time as its node.subquery_seconds sample.
  std::vector<std::vector<Seed>> fresh(count);
  const std::size_t batches = (misses.size() + kSearchBatch - 1) / kSearchBatch;
  auto search_batch = [&](std::size_t b) {
    Stopwatch watch;
    // Near-equal batches: ceil(misses / kSearchBatch) of them.
    const std::size_t begin = b * misses.size() / batches;
    const std::size_t end = (b + 1) * misses.size() / batches;
    std::vector<const vpt::Window*> windows;
    windows.reserve(end - begin);
    for (std::size_t j = begin; j < end; ++j) {
      windows.push_back(&request.subqueries[misses[j]].window);
    }
    auto seeds = search_subqueries(windows, request.params, matrix);
    for (std::size_t j = begin; j < end; ++j) {
      fresh[misses[j]] = std::move(seeds[j - begin]);
    }
    const double share = watch.seconds() / static_cast<double>(end - begin);
    for (std::size_t j = begin; j < end; ++j) {
      h_subquery_->record_seconds(share);
    }
  };
  if (config_.search_pool != nullptr && batches > 1) {
    config_.search_pool->parallel_for(batches, search_batch);
  } else {
    for (std::size_t b = 0; b < batches; ++b) search_batch(b);
  }

  // Phase 3 (handler thread): emit every subquery's seeds in subquery
  // order — byte-identical to the serial path regardless of pool size or
  // hit/miss pattern — then admit the fresh results into the cache, each
  // as an exact-size copy: the cache outlives the search, so the slack
  // push_back left in a fresh list would stay resident with it.
  NodeSearchResultPayload reply;
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<Seed>* seeds = cached[i] != nullptr ? cached[i]
                                                          : &fresh[i];
    const std::uint32_t offset = request.subqueries[i].query_offset;
    for (Seed seed : *seeds) {
      seed.query_offset = offset;
      reply.seeds.push_back(seed);
    }
  }
  if (cache_enabled) {
    std::lock_guard cache_lock(nn_cache_mu_);
    for (std::size_t i : misses) {
      if (nn_cache_.size() >= config_.node.nn_cache_capacity) {
        // Wholesale eviction: simple, rare, and never serves stale seeds.
        nn_cache_.clear();
      }
      nn_cache_[std::move(keys[i])] = std::vector<Seed>(fresh[i]);
    }
  }
  counters_.seeds_emitted += reply.seeds.size();
  record_span("node.search", message.request_id, request.trace, ctx.now(),
              measure_span ? delta_ns(0.0, search_watch.seconds()) : 0,
              count);
  ctx.send(message.from, kNodeSearchResult, message.request_id,
           encode_payload(reply));
}

// --- fan-in shared by both aggregating roles ------------------------------

bool StorageNode::PendingHead::cross_off(net::NodeId from, const char* what) {
  if (awaiting.erase(from) == 0) {
    throw DecodeError(std::string(what) + ": no outstanding reply from node " +
                      std::to_string(from) + " (duplicate or forged)");
  }
  return awaiting.empty();
}

void StorageNode::on_fetch_range_result(const net::Message& message,
                                        net::Context& ctx) {
  auto payload = decode_payload<FetchRangeResultPayload>(message.payload);
  // Fetched subject codes are scored against the query through unchecked
  // LUT kernels (ungapped X-drop and banded DP).
  validate_codes(payload.codes, seq::cardinality(config_.alphabet),
                 "fetch_range_result");
  // The purpose tag only picks the role's pending map: the stage admits
  // the reply and extends its range, and the last reply finishes.
  const auto advance = [&](auto& pending_map) {
    auto it = pending_map.find(message.request_id);
    if (it == pending_map.end()) return;  // stale / cancelled
    auto& pending = it->second;
    const bool wall = !ctx.virtual_time();
    if (pending.fetch.accept(std::move(payload), ctx, config_.search_pool,
                             [this, &pending, wall](std::size_t token) {
                               extend_range(pending, token, wall);
                             })) {
      finish_query(message.request_id, pending, ctx);
    }
  };
  switch (static_cast<FetchPurpose>(payload.purpose)) {
    case FetchPurpose::kGroupExtension:
      return advance(group_pending_);
    case FetchPurpose::kGappedExtension:
      return advance(coord_pending_);
  }
  throw DecodeError("fetch_range_result: unknown purpose " +
                    std::to_string(payload.purpose));
}

// --- elasticity ---------------------------------------------------------------

void StorageNode::on_rebalance(net::Context& ctx) {
  const std::uint32_t group = config_.topology->address(id_).group;
  // Ownership may move blocks either way; drop every cached seed list.
  invalidate_nn_cache();

  // Blocks: ship everything whose owner set no longer includes this node,
  // then compact the survivors into a fresh arena + tree (slots are
  // append-only, so eviction is a rebuild).
  const auto refs = tree_.collect_all();
  std::vector<Block> kept;
  std::map<net::NodeId, InsertBlocksPayload> outgoing;
  std::vector<seq::Code> decoded(arena_.window_length());
  for (const BlockRef& ref : refs) {
    arena_.copy_row(ref.slot, decoded.data());
    const auto owners = config_.topology->nodes_for_key(
        group, block_placement_key(ref.sequence, ref.start,
                                   {decoded.data(), decoded.size()}));
    if (std::find(owners.begin(), owners.end(), id_) != owners.end()) {
      kept.push_back(materialize(ref));
      continue;
    }
    block_keys_.erase(block_key(ref.sequence, ref.start));
    Block moved = materialize(ref);
    for (net::NodeId owner : owners) {
      outgoing[owner].blocks.push_back(moved);
    }
  }
  if (!outgoing.empty()) {
    block_keys_.clear();
    arena_.clear();
    tree_ = make_tree();
    auto fresh = admit_blocks(std::move(kept));
    if (!fresh.empty()) tree_.insert_batch(std::move(fresh));
  }
  for (auto& [owner, payload] : outgoing) {
    ctx.send(owner, kInsertBlocks, 0, encode_payload(payload));
  }

  // Sequence shard: same treatment against the global repository ring.
  std::vector<std::uint32_t> evicted;
  for (const auto& [sid, stored] : sequences_) {
    const auto homes =
        config_.topology->sequence_homes(sequence_placement_key(sid));
    if (std::find(homes.begin(), homes.end(), id_) != homes.end()) continue;
    StoreSequencePayload payload;
    payload.sequence = sid;
    payload.name = stored.name;
    payload.alphabet = static_cast<std::uint8_t>(config_.alphabet);
    payload.codes = stored.codes;
    for (net::NodeId home : homes) {
      ctx.send(home, kStoreSequence, 0, encode_payload(payload));
    }
    evicted.push_back(sid);
  }
  for (std::uint32_t sid : evicted) sequences_.erase(sid);
#ifdef MENDEL_CHECKED
  checked_audit("rebalance");
#endif
}

// --- persistence ------------------------------------------------------------

SnapshotShard StorageNode::save() const {
  SnapshotShard shard;
  shard.id = id_;
  shard.group = config_.topology->address(id_).group;
  // Arena rows go out in their stored (possibly bit-packed) form — no
  // inflate/deflate round trip — in slot order, stride padding stripped.
  auto refs = tree_.collect_all();
  std::sort(refs.begin(), refs.end(),
            [](const BlockRef& a, const BlockRef& b) {
              return a.slot < b.slot;
            });
  shard.window_length = static_cast<std::uint32_t>(arena_.window_length());
  shard.packed_bits = static_cast<std::uint8_t>(arena_.packed_bits());
  const std::size_t row_bytes = arena_.row_bytes();
  shard.row_storage.resize(refs.size() * row_bytes);
  shard.blocks.reserve(refs.size());
  std::vector<std::uint8_t> row(arena_.stride());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    arena_.copy_row_bytes(refs[i].slot, row.data());
    std::uint8_t* dst = shard.row_storage.data() + i * row_bytes;
    std::memcpy(dst, row.data(), row_bytes);
    shard.blocks.push_back({refs[i].sequence, refs[i].start, {dst, row_bytes}});
  }
  // Ascending ids: byte-stable snapshots.
  std::vector<std::uint32_t> ids;
  ids.reserve(sequences_.size());
  for (const auto& [sid, stored] : sequences_) ids.push_back(sid);
  std::sort(ids.begin(), ids.end());
  for (std::uint32_t sid : ids) {
    const auto& stored = sequences_.at(sid);
    shard.sequences.push_back({sid, stored.name, stored.codes});
  }
  return shard;
}

void StorageNode::load(const SnapshotShard& shard) {
  require(shard.id == id_, "StorageNode::load: snapshot is for node " +
                               std::to_string(shard.id));
  // Rows go straight from the snapshot into the arena; when the stored
  // width matches the arena's encoding this is a verbatim copy, otherwise
  // append_row transcodes (e.g. a 4-bit snapshot loaded into a fresh
  // 2-bit arena widens it on the first ambiguity code).
  std::vector<BlockRef> fresh;
  fresh.reserve(shard.blocks.size());
  for (const auto& block : shard.blocks) {
    // Idempotent re-delivery.
    if (!block_keys_.insert(block_key(block.sequence, block.start)).second) {
      continue;
    }
    const std::uint32_t slot =
        arena_.append_row(block.row.data(), block.row.size(),
                          shard.window_length, shard.packed_bits);
    fresh.push_back({block.sequence, block.start, slot});
  }
  // Restored items count separately from this session's insertions (the
  // inserted/stored counters track work done since startup).
  counters_.blocks_restored += fresh.size();
  if (!fresh.empty()) {
    invalidate_nn_cache();
    tree_.insert_batch(std::move(fresh));
  }
  for (const auto& sequence : shard.sequences) {
    StoredSequence stored;
    stored.name = sequence.name;
    stored.codes.assign(sequence.codes.begin(), sequence.codes.end());
    sequences_[sequence.id] = std::move(stored);
    ++counters_.sequences_restored;
  }
#ifdef MENDEL_CHECKED
  checked_audit("load");
#endif
}

// --- invariant verification -------------------------------------------------

std::vector<Block> StorageNode::blocks() const {
  const auto refs = tree_.collect_all();
  std::vector<Block> out;
  out.reserve(refs.size());
  for (const BlockRef& ref : refs) out.push_back(materialize(ref));
  return out;
}

std::vector<seq::SequenceId> StorageNode::stored_sequence_ids() const {
  std::vector<seq::SequenceId> ids;
  ids.reserve(sequences_.size());
  for (const auto& [sid, stored] : sequences_) ids.push_back(sid);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void StorageNode::audit_placement(const BlockRef& ref,
                                  std::vector<std::string>& out) const {
  const std::string ident = "node " + std::to_string(id_) + ": block (seq " +
                            std::to_string(ref.sequence) + ", start " +
                            std::to_string(ref.start) + ")";
  std::vector<seq::Code> decoded(arena_.window_length());
  arena_.copy_row(ref.slot, decoded.data());
  const seq::CodeSpan window{decoded.data(), decoded.size()};
  // Tier 1: the window must re-hash to the group this node belongs to.
  const std::uint32_t own_group = config_.topology->address(id_).group;
  const std::uint64_t prefix = config_.prefix_tree->hash(window);
  const std::uint32_t group = config_.topology->group_for_prefix(prefix);
  if (group != own_group) {
    out.push_back(ident + " hashes to prefix " + std::to_string(prefix) +
                  " = group " + std::to_string(group) +
                  " but is stored in group " + std::to_string(own_group));
    return;  // tier 2 is meaningless against the wrong group ring
  }
  // Tier 2: the intra-group consistent-hash owners must include this node.
  const auto owners = config_.topology->nodes_for_key(
      group, block_placement_key(ref.sequence, ref.start, window));
  if (std::find(owners.begin(), owners.end(), id_) == owners.end()) {
    out.push_back(ident + " is not among the " +
                  std::to_string(owners.size()) +
                  " ring owner(s) of its placement key");
  }
}

std::vector<std::string> StorageNode::audit(std::size_t max_violations) const {
  std::vector<std::string> out;
  const std::string me = "node " + std::to_string(id_);

  // Local vp-tree structure (balance, occupancy, mu admissibility).
  for (auto& violation : tree_.validate(max_violations)) {
    out.push_back(me + " vp-tree: " + std::move(violation));
  }

  // SIMD layout contract: the batched kernels gather straight off the
  // arena buffer, so base alignment and row padding are load-bearing.
  if (!arena_.layout_ok()) {
    out.push_back(me + ": window arena violates the SIMD layout contract "
                       "(base alignment / row stride padding)");
  }

  // Content half of that contract: every stored row must decode and
  // re-encode to the same bytes (zero stride padding, no stray high bits in
  // packed rows) — the packed kernels and the scalar oracle only agree on
  // well-formed rows.
  for (std::uint32_t slot = 0; slot < arena_.size(); ++slot) {
    if (out.size() >= max_violations) return out;
    if (!arena_.row_roundtrip_ok(slot)) {
      out.push_back(me + ": arena slot " + std::to_string(slot) +
                    " fails the packed-row round trip (stray bits or "
                    "nonzero padding)");
    }
  }

  // Spilled arenas: the block store's residency invariants (pinned blocks
  // resident, accounting consistent, resident set within budget + pins).
  std::string store_why;
  if (!arena_.store_audit(&store_why)) {
    out.push_back(me + ": block store residency audit failed: " + store_why);
  }

  // Bookkeeping: tree contents, dedup keys and arena slots must agree.
  const auto refs = tree_.collect_all();
  if (refs.size() != block_keys_.size()) {
    out.push_back(me + ": vp-tree holds " + std::to_string(refs.size()) +
                  " blocks but the dedup key set holds " +
                  std::to_string(block_keys_.size()));
  }
  if (refs.size() != arena_.size()) {
    out.push_back(me + ": vp-tree holds " + std::to_string(refs.size()) +
                  " blocks but the window arena holds " +
                  std::to_string(arena_.size()));
  }
  for (const BlockRef& ref : refs) {
    if (out.size() >= max_violations) return out;
    if (ref.slot >= arena_.size()) {
      out.push_back(me + ": block (seq " + std::to_string(ref.sequence) +
                    ", start " + std::to_string(ref.start) +
                    ") references arena slot " + std::to_string(ref.slot) +
                    " past the arena end");
      return out;  // placement below would read out of bounds
    }
    if (!block_keys_.contains(block_key(ref.sequence, ref.start))) {
      out.push_back(me + ": block (seq " + std::to_string(ref.sequence) +
                    ", start " + std::to_string(ref.start) +
                    ") is missing from the dedup key set");
    }
  }

  // Two-tier DHT placement of every stored block. hash() needs a routing
  // tree whose window length matches the stored payloads, so check that
  // compatibility first instead of letting it throw mid-audit.
  if (!refs.empty()) {
    if (!config_.prefix_tree->built()) {
      out.push_back(me + ": stores blocks but the routing prefix tree is "
                         "not built");
      return out;
    }
    if (arena_.window_length() != config_.prefix_tree->window_length()) {
      out.push_back(
          me + ": arena window length " +
          std::to_string(arena_.window_length()) +
          " != routing prefix tree window length " +
          std::to_string(config_.prefix_tree->window_length()));
      return out;
    }
  }
  for (const BlockRef& ref : refs) {
    if (out.size() >= max_violations) return out;
    audit_placement(ref, out);
  }

  // Sequence shard: every stored sequence's repository-ring homes must
  // include this node.
  for (const auto& [sid, stored] : sequences_) {
    if (out.size() >= max_violations) return out;
    const auto homes =
        config_.topology->sequence_homes(sequence_placement_key(sid));
    if (std::find(homes.begin(), homes.end(), id_) == homes.end()) {
      out.push_back(me + ": sequence " + std::to_string(sid) + " ('" +
                    stored.name + "') is stored off its home ring");
    }
  }
  return out;
}

#ifdef MENDEL_CHECKED
void StorageNode::checked_audit(const char* where) const {
  const auto violations = audit();
  MENDEL_CHECK(violations.empty(),
               "node " << id_ << " failed the invariant audit after " << where
                       << " (" << violations.size()
                       << " violation(s)), first: " << violations.front());
}

void StorageNode::checked_audit_fresh(
    const std::vector<BlockRef>& fresh) const {
  std::vector<std::string> out;
  for (auto& violation : tree_.validate()) {
    out.push_back("node " + std::to_string(id_) + " vp-tree: " +
                  std::move(violation));
  }
  if (config_.checked_placement_audit) {
    for (const BlockRef& ref : fresh) {
      if (out.size() >= 32) break;
      audit_placement(ref, out);
    }
  }
  MENDEL_CHECK(out.empty(),
               "node " << id_ << " failed the invariant audit after insert ("
                       << out.size() << " violation(s)), first: "
                       << out.front());
}

void StorageNode::checked_nearest(
    std::span<const vpt::Window* const> windows, std::size_t n, double cap,
    const std::vector<std::vector<vpt::Neighbor<BlockRef>>>& got) const {
  struct Ranked {
    double distance;
    std::uint64_t key;
    bool operator<(const Ranked& other) const {
      return distance != other.distance ? distance < other.distance
                                        : key < other.key;
    }
  };
  std::vector<seq::Code> row(arena_.window_length());
  for (std::size_t b = 0; b < windows.size(); ++b) {
    std::vector<Ranked> want;
    tree_.for_each([&](const BlockRef& ref) {
      arena_.copy_row(ref.slot, row.data());
      const double d = score::detail::window_distance_scalar(
          *config_.distance, windows[b]->data(), row.data(), row.size());
      if (d <= cap) want.push_back({d, block_key(ref.sequence, ref.start)});
    });
    std::sort(want.begin(), want.end());
    want.resize(std::min(want.size(), n));
    MENDEL_CHECK(got[b].size() == want.size(),
                 "node " << id_ << ": probe " << b << " got "
                         << got[b].size() << " neighbours, the scan "
                         << want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const BlockRef& ref = *got[b][i].item;
      MENDEL_CHECK(got[b][i].distance == want[i].distance &&
                       block_key(ref.sequence, ref.start) == want[i].key,
                   "node " << id_ << ": probe " << b << " neighbour " << i
                           << " is (" << got[b][i].distance << ", "
                           << ref.sequence << ":" << ref.start
                           << "), the scan's (" << want[i].distance << ", "
                           << (want[i].key >> 32) << ":"
                           << (want[i].key & 0xffffffffu) << ")");
    }
  }
}
#endif

}  // namespace mendel::core