// StorageNode as coordinator, the system entry point (paper §V-B): cut the
// query into stride-k subqueries, route them to groups through the
// vp-prefix tree, bin the groups' anchors by sequence, prune bins that
// cannot reach the ranking, fetch and gapped-extend the rest as their
// ranges arrive, then rank the hits by E-value for the client.
#include <algorithm>
#include <limits>

#include "src/align/banded.h"
#include "src/common/check.h"
#include "src/common/error.h"
#include "src/common/stopwatch.h"
#include "src/mendel/anchors.h"
#include "src/mendel/storage_node.h"
#include "src/scoring/matrix.h"

namespace mendel::core {

void StorageNode::on_query_request(const net::Message& message,
                                   net::Context& ctx) {
  auto request = decode_payload<QueryRequestPayload>(message.payload);
  // The query's codes index distance LUTs on every node downstream and the
  // matrix name is resolved again at extension time: reject both here, at
  // the dataflow's entry, so no later stage can trip on them.
  validate_codes(request.query, seq::cardinality(config_.alphabet),
                 "query_request");
  matrix_from_wire(request.params.matrix);
  ++counters_.queries_coordinated;

  const std::size_t block_len = config_.prefix_tree->window_length();
  const std::uint64_t query_id = message.request_id;

  if (request.query.size() < block_len || request.params.k == 0) {
    coordinator_reply_empty(query_id, message.from, ctx);
    return;
  }

  // Stride-k sliding window over the query (paper §V-B: "steps over the
  // query sequence in larger intervals of size k ... to reduce the
  // amplification of the subqueries"), plus a final window flush against
  // the tail so the query's end is always covered.
  std::vector<Subquery> subqueries;
  const std::size_t last_offset = request.query.size() - block_len;
  const auto add_window = [&](std::size_t offset) {
    const seq::Code* begin = request.query.data() + offset;
    subqueries.push_back(
        {static_cast<std::uint32_t>(offset), {begin, begin + block_len}});
  };
  for (std::size_t offset = 0; offset <= last_offset;
       offset += request.params.k) {
    add_window(offset);
  }
  // Tail flush: one final window ending exactly at the query's end.
  if (last_offset % request.params.k != 0) add_window(last_offset);

  // Tier-1 routing: vp-prefix multi-hash each subquery to its group(s).
  std::map<std::uint32_t, std::vector<Subquery>> per_group;
  for (const Subquery& sub : subqueries) {
    const auto prefixes = config_.prefix_tree->hash_multi(
        sub.window, request.params.branch_epsilon);
    std::set<std::uint32_t> groups;
    for (std::uint64_t prefix : prefixes) {
      groups.insert(config_.topology->group_for_prefix(prefix));
    }
    for (std::uint32_t group : groups) per_group[group].push_back(sub);
  }

  // The routing span parents every downstream group's work; the pending
  // trace context carries it to the coordinator's own later stages.
  const std::uint64_t route_span =
      record_span("coord.route", query_id, request.trace, ctx.now(), 0,
                  subqueries.size());
  PendingQuery pending;
  pending.reply_to = message.from;
  pending.params = request.params;
  pending.query = request.query;
  pending.trace = request.trace.child(route_span);
  pending.created = ctx.now();

  // Dispatch one GroupQuery per selected group to an alive entry node.
  // The params+trace+query prefix is serialized once; only each group's
  // subquery set differs per message.
  const auto prefix =
      encode_group_query_prefix(request.params, pending.trace, request.query);
  // Each group's entry is one of its own members, so entries are distinct.
  for (auto& [group, subs] : per_group) {
    const auto alive = alive_group_members(group);
    if (alive.empty()) continue;
    const net::NodeId entry =
        alive[(query_id + group) % alive.size()];
    ctx.send(entry, kGroupQuery, query_id, encode_group_query(prefix, subs));
    pending.awaiting.insert(entry);
  }

  if (pending.awaiting.empty()) {
    coordinator_reply_empty(query_id, message.from, ctx);
    return;
  }
  coord_pending_[query_id] = std::move(pending);
}

void StorageNode::on_group_result(const net::Message& message,
                                  net::Context& ctx) {
  auto it = coord_pending_.find(message.request_id);
  if (it == coord_pending_.end()) return;
  PendingQuery& pending = it->second;

  auto payload = decode_payload<GroupResultPayload>(message.payload);
  // Anchor intervals feed unsigned span arithmetic (length(), pruning
  // ceilings, banded DP bands): reject inverted or query-overrunning ones.
  for (const Anchor& anchor : payload.anchors) {
    validate_anchor(anchor);
    if (anchor.q_end > pending.query.size()) {
      throw DecodeError("group_result: anchor q interval [" +
                        std::to_string(anchor.q_begin) + ", " +
                        std::to_string(anchor.q_end) +
                        ") overruns query length " +
                        std::to_string(pending.query.size()));
    }
  }
  const bool last = pending.cross_off(message.from, "group_result");
  // Streaming fan-in: bin by sequence as results arrive instead of piling
  // anchors into one flat list for an end-of-fan-in pass; the last arrival
  // then only pays per-sequence diagonal merging.
  for (const Anchor& anchor : payload.anchors) {
    pending.binned[anchor.sequence].push_back(anchor);
  }
  if (!last) return;
  if (h_coord_fanin_ != nullptr) {
    // Route → last group result; virtual seconds under the simulator.
    h_coord_fanin_->record_seconds(ctx.now() - pending.created);
  }
  coordinator_bin_and_fetch(message.request_id, pending, ctx);
}

void StorageNode::coordinator_bin_and_fetch(std::uint64_t query_id,
                                            PendingQuery& pending,
                                            net::Context& ctx) {
  // Second aggregation stage (paper §V-B): combine overlapping anchors on
  // the same diagonal across groups. Anchors were already binned by
  // sequence as the group results streamed in; merging never crosses
  // sequences, so per-bin merges reproduce the old global pass exactly.
  std::size_t total_merged = 0;
  for (auto& [sid, anchors] : pending.binned) {
    SequenceBin bin;
    bin.sequence = sid;
    bin.anchors = merge_anchors(std::move(anchors));
    total_merged += bin.anchors.size();
    // Keep only bins with at least one anchor above the gapped trigger S.
    const bool qualifies = std::any_of(
        bin.anchors.begin(), bin.anchors.end(), [&](const Anchor& a) {
          return a.normalized_score() > pending.params.gapped_trigger;
        });
    if (!qualifies) continue;
    // Best-first so the strongest anchor's gapped alignment is accepted
    // before weaker overlapping anchors can shadow it in the dedup pass.
    // The order is total, so results are independent of message arrival
    // order (symmetric-architecture guarantee: every entry point generates
    // identical results).
    std::sort(bin.anchors.begin(), bin.anchors.end(),
              [](const Anchor& a, const Anchor& b) {
                if (a.score != b.score) return a.score > b.score;
                if (a.s_begin != b.s_begin) return a.s_begin < b.s_begin;
                if (a.q_begin != b.q_begin) return a.q_begin < b.q_begin;
                return a.q_end < b.q_end;
              });
    pending.bins.push_back(std::move(bin));
  }
  pending.binned.clear();

  // The fan-in span covers route → last group result. The duration comes
  // from clock deltas, so it is virtual (and deterministic) under the
  // simulator and wall time under the threaded transport.
  const std::uint64_t fanin_span = record_span(
      "coord.fanin", query_id, pending.trace, pending.created,
      delta_ns(pending.created, ctx.now()), total_merged);
  const obs::TraceContext fetch_trace = pending.trace.child(fanin_span);

  if (pending.bins.empty()) {
    coordinator_reply_empty(query_id, pending.reply_to, ctx);
    return;
  }

  // Per-bin fetch windows and homes, needed by both the pruning bound and
  // the fetch stage.
  const std::uint32_t margin =
      pending.params.extension_margin + pending.params.band;
  std::vector<PlannedFetch> plan(pending.bins.size());
  for (std::size_t i = 0; i < pending.bins.size(); ++i) {
    const SequenceBin& bin = pending.bins[i];
    PlannedFetch& f = plan[i];
    f.sequence = bin.sequence;
    f.home = pick_sequence_home(sequence_placement_key(bin.sequence));
    std::uint32_t lo = bin.anchors.front().s_begin;
    std::uint32_t hi = 0;
    for (const Anchor& a : bin.anchors) {
      lo = std::min(lo, a.s_begin);
      hi = std::max(hi, a.s_end);
    }
    f.start = lo > margin ? lo - margin : 0;
    f.length = (lo - f.start) + (hi - lo) + 2 * margin;
  }

  // ---- score-bounded pruning (exact — see docs/architecture.md) --------
  //
  // Upper bound U_i on any banded score bin i can produce: every aligned
  // pair consumes one query row and one subject column, and the window
  // holds at most L_i columns (the planned fetch, clipped at the end of
  // the subject when its length is known), so the score is at most the
  // sum of the min(L_i, qlen) largest positive per-row matrix maxima —
  // gap costs only subtract. A lower bound on every possible hit's
  // E-value follows. Guaranteed hit: the
  // bin's first attempted anchor always runs its DP against a window that
  // contains its certified ungapped run, so the bin is certain to place a
  // hit at E-value <= e(cert) when e(cert) passes the E-value filter. The
  // cutoff C is the max_hits-th smallest such guarantee; a bin whose
  // E-value lower bound is strictly above both C and the filter can only
  // produce hits that rank past the top max_hits, so skipping its fetch
  // and DP cannot change the reply.
  if (config_.prune_extensions) {
    const auto& matrix = score::matrix_by_name(pending.params.matrix);
    const auto karlin = score::gapped_params(matrix);
    const std::uint64_t db_residues =
        config_.database_residues > 0 ? config_.database_residues : 1;
    const std::size_t qlen = pending.query.size();
    const std::size_t codes = seq::cardinality(config_.alphabet);
    // Positive per-query-row matrix maxima, largest first, with prefix
    // sums: an alignment against an L-column window pairs at most
    // min(L, qlen) distinct query rows, so prefix[min(L, qlen)] bounds any
    // achievable banded score (gap costs only subtract).
    std::vector<int> row_maxima;
    row_maxima.reserve(pending.query.size());
    for (seq::Code code : pending.query) {
      int row_max = 0;
      for (std::size_t d = 0; d < codes; ++d) {
        row_max = std::max(row_max,
                           matrix.score(code, static_cast<seq::Code>(d)));
      }
      if (row_max > 0) row_maxima.push_back(row_max);
    }
    std::sort(row_maxima.begin(), row_maxima.end(), std::greater<>());
    std::vector<double> prefix(row_maxima.size() + 1, 0.0);
    for (std::size_t i = 0; i < row_maxima.size(); ++i) {
      prefix[i + 1] = prefix[i] + row_maxima[i];
    }

    std::vector<double> guarantees;
    std::vector<double> floor_evalue(pending.bins.size(), 0.0);
    for (std::size_t i = 0; i < pending.bins.size(); ++i) {
      const SequenceBin& bin = pending.bins[i];
      // Subject columns a gapped alignment could use: the planned window,
      // clipped at the end of the sequence when a group entry learned its
      // length from a clamped fetch.
      std::uint64_t columns = plan[i].length;
      for (const Anchor& anchor : bin.anchors) {
        if (anchor.subject_len == 0) continue;
        const std::uint64_t usable =
            anchor.subject_len > plan[i].start
                ? anchor.subject_len - plan[i].start
                : 0;
        columns = std::min(columns, usable);
        break;
      }
      const double best_possible =
          prefix[std::min<std::size_t>(columns, row_maxima.size())];
      floor_evalue[i] =
          score::evalue(karlin, best_possible, qlen, db_residues);
      if (plan[i].home == net::kClientNode) continue;  // no fetch: no hit
      if (pending.params.max_gapped_per_bin == 0) continue;  // no DP runs
      // First attempted anchor = first above the trigger in best-first
      // order; its certified run bounds what its DP is sure to achieve.
      const auto first = std::find_if(
          bin.anchors.begin(), bin.anchors.end(), [&](const Anchor& a) {
            return a.normalized_score() > pending.params.gapped_trigger;
          });
      if (first == bin.anchors.end() || first->cert <= 0) continue;
      const double guaranteed =
          score::evalue(karlin, first->cert, qlen, db_residues);
      if (guaranteed > pending.params.evalue) continue;
      guarantees.push_back(guaranteed);
    }
    double cutoff = std::numeric_limits<double>::infinity();
    const std::size_t k = pending.params.max_hits;
    if (k == 0) {
      cutoff = -std::numeric_limits<double>::infinity();
    } else if (guarantees.size() >= k) {
      std::nth_element(guarantees.begin(),
                       guarantees.begin() + static_cast<std::ptrdiff_t>(k) -
                           1,
                       guarantees.end());
      cutoff = guarantees[k - 1];
    }
    std::size_t pruned_bins = 0;
    std::uint64_t pruned_anchors = 0;
    for (std::size_t i = 0; i < pending.bins.size(); ++i) {
      // Strict >: a pruned hit tying the cutoff exactly could still win a
      // subject-id tiebreak against the guaranteed hit. Support bins never
      // self-prune (their floor is at most their own guarantee).
      if (floor_evalue[i] > pending.params.evalue ||
          floor_evalue[i] > cutoff) {
        pending.bins[i].pruned = true;
        ++pruned_bins;
        pruned_anchors += pending.bins[i].anchors.size();
#ifndef MENDEL_CHECKED
        // Checked builds still fetch and extend pruned bins, and
        // finish_query asserts that dropping their hits leaves the ranking
        // untouched: the exactness proof, executed.
        plan[i].home = net::kClientNode;
#endif
      }
    }
    counters_.anchors_pruned += pruned_anchors;
    if (c_anchors_pruned_ != nullptr) c_anchors_pruned_->add(pruned_anchors);
    record_span("coord.prune", query_id, pending.trace, ctx.now(), 0,
                pruned_bins);
  }
  if (pending.fetch.start(std::move(plan), FetchPurpose::kGappedExtension,
                          query_id, fetch_trace, ctx) == 0) {
    coordinator_reply_empty(query_id, pending.reply_to, ctx);
  }
}

void StorageNode::extend_range(PendingQuery& pending, std::size_t token,
                               bool wall_timing) {
  const FetchedRange& range = pending.fetch.range(token);
  if (range.codes.empty()) return;
  SequenceBin& bin = pending.bins[token];
  const auto& matrix = score::matrix_by_name(pending.params.matrix);
  const auto karlin = score::gapped_params(matrix);
  const std::uint64_t db_residues =
      config_.database_residues > 0 ? config_.database_residues : 1;
  std::optional<Stopwatch> watch;
  if (wall_timing && h_coord_extend_ != nullptr) watch.emplace();

  std::vector<align::GappedAlignment> accepted;
  // True when the [qb, qe) x [sb, se) box overlaps an accepted alignment.
  const auto shadowed = [&](std::size_t qb, std::size_t qe, std::size_t sb,
                            std::size_t se) {
    return std::any_of(accepted.begin(), accepted.end(),
                       [&](const align::GappedAlignment& a) {
                         return qb < a.hsp.q_end && a.hsp.q_begin < qe &&
                                sb < a.hsp.s_end && a.hsp.s_begin < se;
                       });
  };
  std::uint32_t attempts = 0;
  for (const Anchor& anchor : bin.anchors) {
    if (anchor.normalized_score() <= pending.params.gapped_trigger) continue;
    if (attempts >= pending.params.max_gapped_per_bin) break;
    // Anchors are processed best-first; skip any anchor already covered by
    // an accepted gapped alignment *before* paying for its DP —
    // nearby-diagonal anchors overwhelmingly converge to one alignment.
    if (shadowed(anchor.q_begin, anchor.q_end, anchor.s_begin, anchor.s_end)) {
      continue;
    }

    ++attempts;
    ++bin.dp_runs;
    const std::ptrdiff_t local_diag =
        anchor.diagonal() - static_cast<std::ptrdiff_t>(range.start);
    align::GappedAlignment gapped = align::banded_local_align(
        pending.query, range.codes, matrix, matrix.default_gaps(),
        {local_diag, pending.params.band});
    if (gapped.hsp.score <= 0) continue;
    // Back to absolute subject coordinates.
    gapped.hsp.s_begin += range.start;
    gapped.hsp.s_end += range.start;

    // Deduplicate against the accepted alignments (the pre-check used the
    // anchor's span; the gapped result can drift).
    if (shadowed(gapped.hsp.q_begin, gapped.hsp.q_end, gapped.hsp.s_begin,
                 gapped.hsp.s_end)) {
      continue;
    }

    const double e = score::evalue(karlin, gapped.hsp.score,
                                   pending.query.size(), db_residues);
    if (e > pending.params.evalue) {
      accepted.push_back(gapped);  // still shadows duplicates
      continue;
    }

    align::AlignmentHit hit;
    hit.subject_id = bin.sequence;
    hit.subject_name = range.name;
    hit.alignment = gapped;
    hit.bit_score = score::bit_score(karlin, gapped.hsp.score);
    hit.evalue = e;
    if (pending.params.include_subject_segment) {
      const auto local_begin =
          static_cast<std::ptrdiff_t>(gapped.hsp.s_begin - range.start);
      hit.subject_segment.assign(
          range.codes.begin() + local_begin,
          range.codes.begin() + local_begin +
              static_cast<std::ptrdiff_t>(gapped.hsp.s_len()));
    }
    bin.hits.push_back(std::move(hit));
    accepted.push_back(gapped);
  }
  if (watch.has_value()) h_coord_extend_->record_seconds(watch->seconds());
}

namespace {

// Ranked-hit ordering of the final reply (ties broken by subject id; hits
// of one subject keep their bin emission order under std::sort's
// implementation-determinism because assembly feeds bins in index order).
void rank_hits(std::vector<align::AlignmentHit>& hits,
               std::uint32_t max_hits) {
  std::sort(hits.begin(), hits.end(),
            [](const align::AlignmentHit& a, const align::AlignmentHit& b) {
              if (a.evalue != b.evalue) return a.evalue < b.evalue;
              return a.subject_id < b.subject_id;
            });
  if (hits.size() > max_hits) hits.resize(max_hits);
}

}  // namespace

void StorageNode::finish_query(std::uint64_t query_id, PendingQuery& pending,
                               net::Context& ctx) {
  pending.fetch.join();

  QueryResultPayload reply;
  for (const SequenceBin& bin : pending.bins) {
    counters_.gapped_extensions += bin.dp_runs;
    if (bin.pruned) continue;
    reply.hits.insert(reply.hits.end(), bin.hits.begin(), bin.hits.end());
  }
  rank_hits(reply.hits, pending.params.max_hits);

#ifdef MENDEL_CHECKED
  // Prune audit: pruned bins were fetched and extended too (see
  // coordinator_bin_and_fetch); their hits must not change the ranking.
  std::vector<align::AlignmentHit> full;
  for (const SequenceBin& bin : pending.bins) {
    full.insert(full.end(), bin.hits.begin(), bin.hits.end());
  }
  rank_hits(full, pending.params.max_hits);
  MENDEL_CHECK(full.size() == reply.hits.size(),
               "node " << id_ << ": query " << query_id
                       << " prune audit: pruned ranking has "
                       << reply.hits.size() << " hits, full ranking "
                       << full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    const align::AlignmentHit& a = full[i];
    const align::AlignmentHit& b = reply.hits[i];
    MENDEL_CHECK(a.subject_id == b.subject_id && a.evalue == b.evalue &&
                     a.alignment.hsp.score == b.alignment.hsp.score &&
                     a.alignment.hsp.q_begin == b.alignment.hsp.q_begin &&
                     a.alignment.hsp.s_begin == b.alignment.hsp.s_begin,
                 "node " << id_ << ": query " << query_id
                         << " prune audit: rank " << i
                         << " differs (full subject " << a.subject_id
                         << " evalue " << a.evalue << " vs pruned subject "
                         << b.subject_id << " evalue " << b.evalue << ")");
  }
#endif

  record_span("coord.finish", query_id, pending.trace, ctx.now(), 0,
              reply.hits.size());
  ctx.send(pending.reply_to, kQueryResult, query_id, encode_payload(reply));
  coord_pending_.erase(query_id);
}

void StorageNode::coordinator_reply_empty(std::uint64_t query_id,
                                          net::NodeId to, net::Context& ctx) {
  ctx.send(to, kQueryResult, query_id, encode_payload(QueryResultPayload{}));
  coord_pending_.erase(query_id);
}

}  // namespace mendel::core
