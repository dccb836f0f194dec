// StorageNode as group entry (paper §V-B): broadcast a group's subqueries
// to every alive member, merge the returned seeds on (sequence, diagonal),
// fetch the coalesced subject ranges and extend each merged seed ungapped
// as its range arrives, then answer the coordinator with the anchors.
#include <algorithm>

#include "src/align/ungapped.h"
#include "src/common/error.h"
#include "src/common/stopwatch.h"
#include "src/mendel/anchors.h"
#include "src/mendel/storage_node.h"
#include "src/scoring/matrix.h"

namespace mendel::core {

namespace {

// The window a group entry fetches and extends a merged seed in:
// extension_margin codes either side of the seed's subject span.
PaddedWindow seed_window(std::uint32_t s_begin, std::uint32_t span,
                         std::uint32_t margin) {
  return padded_window(s_begin, std::uint64_t{s_begin} + span, margin,
                       margin);
}

}  // namespace

void StorageNode::on_group_query(const net::Message& message,
                                 net::Context& ctx) {
  auto request = decode_payload<GroupQueryPayload>(message.payload);
  // A group query can arrive from any peer, not only our own coordinator:
  // re-validate the query (extension scores it against fetched subjects)
  // and every subquery window (forwarded verbatim into node searches).
  const std::size_t cardinality = seq::cardinality(config_.alphabet);
  validate_codes(request.query, cardinality, "group_query");
  matrix_from_wire(request.params.matrix);
  for (const Subquery& sub : request.subqueries) {
    validate_codes(sub.window, cardinality, "group_query subquery");
    const std::uint64_t end =
        static_cast<std::uint64_t>(sub.query_offset) + sub.window.size();
    if (end > request.query.size()) {
      throw DecodeError("group_query: subquery at offset " +
                        std::to_string(sub.query_offset) + " (window " +
                        std::to_string(sub.window.size()) +
                        ") overruns query length " +
                        std::to_string(request.query.size()));
    }
  }
  ++counters_.group_queries;
  const std::uint64_t query_id = message.request_id;
  const std::uint32_t group = config_.topology->address(id_).group;

  PendingGroupQuery pending;
  pending.reply_to = message.from;
  pending.params = request.params;
  pending.query = request.query;

  // Flat-hash dispersal means any node of the group may hold relevant
  // blocks: replicate the search to every alive member (paper §V-B).
  const auto members = alive_group_members(group);
  const std::uint64_t broadcast_span =
      record_span("group.broadcast", query_id, request.trace, ctx.now(), 0,
                  members.size());
  pending.trace = request.trace.child(broadcast_span);
  pending.created = ctx.now();
  NodeSearchPayload search;
  search.params = request.params;
  search.trace = pending.trace;
  search.subqueries = std::move(request.subqueries);
  const auto encoded = encode_payload(search);
  for (net::NodeId member : members) {
    ctx.send(member, kNodeSearch, query_id, encoded);
  }
  if (members.empty()) {
    group_entry_reply_empty(query_id, message.from, ctx);
    return;
  }
  pending.awaiting.insert(members.begin(), members.end());
  group_pending_[query_id] = std::move(pending);
}

void StorageNode::on_node_search_result(const net::Message& message,
                                        net::Context& ctx) {
  auto it = group_pending_.find(message.request_id);
  if (it == group_pending_.end()) return;  // stale / cancelled
  PendingGroupQuery& pending = it->second;

  auto payload = decode_payload<NodeSearchResultPayload>(message.payload);
  // Seeds whose windows overrun the query must not reach the merge
  // arithmetic (merged ranges drive fetch lengths and extension spans).
  for (const Seed& seed : payload.seeds) {
    validate_seed(seed);
    const std::uint64_t q_end =
        static_cast<std::uint64_t>(seed.query_offset) + seed.length;
    if (q_end > pending.query.size()) {
      throw DecodeError("node_search_result: seed window [" +
                        std::to_string(seed.query_offset) + ", " +
                        std::to_string(q_end) + ") overruns query length " +
                        std::to_string(pending.query.size()));
    }
  }
  const bool last = pending.cross_off(message.from, "node_search_result");
  pending.seeds.insert(pending.seeds.end(), payload.seeds.begin(),
                       payload.seeds.end());
  if (!last) return;
  // Broadcast → last search result; virtual seconds under the simulator.
  h_group_fanin_->record_seconds(ctx.now() - pending.created);
  group_entry_merge_and_fetch(message.request_id, pending, ctx);
}

void StorageNode::group_entry_merge_and_fetch(std::uint64_t query_id,
                                              PendingGroupQuery& pending,
                                              net::Context& ctx) {
  // Merge seeds on the same (sequence, diagonal) into runs (paper §V-B:
  // binning by sequence id, combining overlapping anchors on the same
  // diagonal).
  std::sort(pending.seeds.begin(), pending.seeds.end(),
            [](const Seed& a, const Seed& b) {
              if (a.sequence != b.sequence) return a.sequence < b.sequence;
              if (a.diagonal() != b.diagonal())
                return a.diagonal() < b.diagonal();
              return a.query_offset < b.query_offset;
            });
  std::vector<MergedSeed> merged;
  for (const Seed& seed : pending.seeds) {
    const bool extends_last =
        !merged.empty() && merged.back().sequence == seed.sequence &&
        static_cast<std::ptrdiff_t>(merged.back().s_begin) -
                static_cast<std::ptrdiff_t>(merged.back().q_begin) ==
            seed.diagonal() &&
        seed.query_offset <= merged.back().q_end;
    if (extends_last) {
      merged.back().q_end = std::max(merged.back().q_end,
                                     seed.query_offset + seed.length);
    } else {
      merged.push_back({seed.sequence, seed.query_offset,
                        seed.query_offset + seed.length, seed.subject_start});
    }
  }
  // Optional noise gate: drop isolated short runs before paying for their
  // fetch + extension (params.min_anchor_span, 0 = keep everything).
  if (pending.params.min_anchor_span > 0) {
    std::erase_if(merged, [&](const MergedSeed& m) {
      return m.q_end - m.q_begin < pending.params.min_anchor_span;
    });
  }
  if (merged.empty()) {
    group_entry_reply_empty(query_id, pending.reply_to, ctx);
    return;
  }
  pending.merged = std::move(merged);

  const std::uint64_t merge_span =
      record_span("group.merge", query_id, pending.trace, ctx.now(), 0,
                  pending.merged.size());

  // Coalesced range fetches: anchors of one sequence cluster on nearby
  // diagonals, so their margin-padded windows overlap heavily; union them
  // into one kFetchRange per covering range and issue everything up front.
  // Extension runs per arrival instead of behind the last fetch,
  // overlapping fetch latency with compute.
  std::vector<RangeRequest> requests;
  requests.reserve(pending.merged.size());
  for (const MergedSeed& m : pending.merged) {
    const PaddedWindow window = seed_window(
        m.s_begin, m.q_end - m.q_begin, pending.params.extension_margin);
    requests.push_back({m.sequence, window.start, window.length()});
  }
  pending.fetch_plan = coalesce_ranges(requests);
  pending.anchor_slots.assign(pending.merged.size(), std::nullopt);

  std::vector<PlannedFetch> plan;
  plan.reserve(pending.fetch_plan.size());
  std::size_t member_requests = 0;
  for (const CoalescedRange& range : pending.fetch_plan) {
    const net::NodeId home =
        pick_sequence_home(sequence_placement_key(range.sequence));
    if (home != net::kClientNode) member_requests += range.members.size();
    plan.push_back({home, range.sequence, range.start, range.length});
  }
  const std::size_t sent =
      pending.fetch.start(std::move(plan), FetchPurpose::kGroupExtension,
                          query_id, pending.trace.child(merge_span), ctx);
  if (sent == 0) {
    group_entry_reply_empty(query_id, pending.reply_to, ctx);
    return;
  }
  counters_.fetch_ranges_coalesced += member_requests - sent;
}

void StorageNode::extend_range(PendingGroupQuery& pending, std::size_t token,
                               bool wall_timing) {
  const FetchedRange& range = pending.fetch.range(token);
  if (range.codes.empty()) return;
  const auto& matrix = score::matrix_by_name(pending.params.matrix);
  std::optional<Stopwatch> watch;
  if (wall_timing) watch.emplace();
  const std::uint64_t data_begin = range.start;
  const std::uint64_t data_end = range.start + range.codes.size();
  // A reply shorter than requested means the home clamped at the end of
  // the sequence, so data_end is the subject's exact length.
  const std::uint32_t subject_len =
      range.codes.size() < pending.fetch_plan[token].length
          ? static_cast<std::uint32_t>(data_end)
          : 0;
  for (std::uint32_t member : pending.fetch_plan[token].members) {
    const MergedSeed& m = pending.merged[member];
    // Re-derive the member's own margin-padded window and clamp the
    // coalesced buffer to it: extension must see exactly the bytes a
    // dedicated per-seed fetch would have returned, so coalescing can
    // never perturb where X-drop terminates (anchors stay byte-identical
    // to the one-fetch-per-seed dataflow).
    const std::uint32_t span = m.q_end - m.q_begin;
    const PaddedWindow window =
        seed_window(m.s_begin, span, pending.params.extension_margin);
    const std::uint64_t view_begin =
        std::max<std::uint64_t>(window.start, data_begin);
    const std::uint64_t view_end = std::min(window.end, data_end);
    if (view_begin >= view_end) continue;
    if (m.s_begin < view_begin) continue;  // defensive: clamp mismatch
    const std::size_t s_local = m.s_begin - view_begin;
    if (s_local + span > view_end - view_begin) continue;
    const seq::CodeSpan subject(
        range.codes.data() + (view_begin - data_begin),
        static_cast<std::size_t>(view_end - view_begin));

    const align::Hsp hsp =
        align::extend_ungapped(pending.query, subject, m.q_begin, s_local,
                               span, matrix, {pending.params.x_drop});
    Anchor anchor;
    anchor.sequence = m.sequence;
    anchor.q_begin = static_cast<std::uint32_t>(hsp.q_begin);
    anchor.q_end = static_cast<std::uint32_t>(hsp.q_end);
    anchor.s_begin = static_cast<std::uint32_t>(hsp.s_begin + view_begin);
    anchor.s_end = static_cast<std::uint32_t>(hsp.s_end + view_begin);
    anchor.score = hsp.score;
    anchor.cert = hsp.score;  // actually scored, never an estimate
    anchor.subject_len = subject_len;
    pending.anchor_slots[member] = anchor;
  }
  if (watch.has_value()) h_group_extend_->record_seconds(watch->seconds());
}

void StorageNode::finish_query(std::uint64_t query_id,
                               PendingGroupQuery& pending,
                               net::Context& ctx) {
  // Assemble in merged-seed order: each range writes only its members'
  // slots and the order below is index order, so the reply is independent
  // of fetch arrival order.
  std::vector<Anchor> anchors;
  anchors.reserve(pending.anchor_slots.size());
  for (const std::optional<Anchor>& slot : pending.anchor_slots) {
    if (slot.has_value()) anchors.push_back(*slot);
  }
  counters_.anchors_extended += anchors.size();

  GroupResultPayload reply;
  reply.anchors = merge_anchors(std::move(anchors));
  record_span("group.extend", query_id, pending.trace, ctx.now(), 0,
              reply.anchors.size());
  ctx.send(pending.reply_to, kGroupResult, query_id, encode_payload(reply));
  group_pending_.erase(query_id);
}

void StorageNode::group_entry_reply_empty(std::uint64_t query_id,
                                          net::NodeId to, net::Context& ctx) {
  ctx.send(to, kGroupResult, query_id, encode_payload(GroupResultPayload{}));
  group_pending_.erase(query_id);
}

}  // namespace mendel::core
