// Wire protocol of the Mendel cluster (message types + payload codecs).
//
// Query dataflow (paper §V-B):
//
//   client ──kQueryRequest──▶ system entry point (coordinator)
//     coordinator: stride-k sliding window ⇒ subqueries; vp-prefix
//     hash_multi ⇒ target groups
//   coordinator ──kGroupQuery──▶ one entry node per selected group
//     group entry ──kNodeSearch──▶ every node of the group (flat-hash
//       dispersal means any node may hold matches — paper §V-A2)
//     node: local vp-tree n-NN per subquery, identity + c-score filters
//     node ──kNodeSearchResult──▶ group entry
//     group entry: merge seeds on (sequence, diagonal); batched
//       kFetchRange to sequence home nodes; ungapped X-drop extension
//     group entry ──kGroupResult──▶ coordinator
//   coordinator: merge anchors across groups, bin by sequence, anchors
//     with normalized score > S ⇒ banded gapped extension (band l) using
//     ranges fetched from home nodes; E-value filter; rank
//   coordinator ──kQueryResult──▶ client
//
// Indexing dataflow (paper §V-A): the indexer ships each sequence to its
// home node (kStoreSequence) and each inverted-index block batch to its
// tier-1 group / tier-2 ring owner (kInsertBlocks).
//
// Byte format: every payload below (and the records it nests — QueryParams,
// Block, obs::TraceContext, obs::SpanRecord, align::AlignmentHit) states its
// layout once, in its fields() list; encode_payload and decode_payload run
// that list through CodecWriter / CodecReader (src/common/codec.h has the
// per-type rules). To add a field to a message, add the member and name it
// in fields() — nothing else encodes or decodes it — then regenerate the
// fuzz corpus (tools/fuzz_seed_gen tests/fuzz/corpus).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/align/alignment.h"
#include "src/common/codec.h"
#include "src/mendel/block.h"
#include "src/mendel/params.h"
#include "src/net/message.h"
#include "src/obs/trace.h"

namespace mendel::core {

enum MessageType : std::uint32_t {
  kStoreSequence = 1,
  kInsertBlocks = 2,
  kQueryRequest = 10,
  kGroupQuery = 11,
  kNodeSearch = 12,
  kNodeSearchResult = 13,
  kGroupResult = 14,
  kQueryResult = 15,
  kFetchRange = 20,
  kFetchRangeResult = 21,
  // Client-issued abort: nodes drop any pending state for the query id
  // (sent when a query's dataflow stalled, e.g. a silently failed node).
  kCancelQuery = 30,
  // Membership changed (a node joined): re-evaluate ownership of every
  // locally stored block and sequence against the shared topology and ship
  // anything this node no longer owns to its current owners.
  kRebalance = 31,
  // Observability: the client broadcasts kCollectTrace (request_id = query
  // id) after a traced query completes; each node drains that query's spans
  // from its SpanBuffer and replies kTraceReport.
  kCollectTrace = 40,
  kTraceReport = 41,
  // Cluster control (socket deployment): in TransportMode::kSocket the
  // coordinator process hosts no StorageNodes, so state that the in-process
  // runtimes install through direct method calls travels as messages to the
  // mendel-node daemons instead.
  //   kNodeInit     — (re)build the hosted nodes: topology shape, alphabet,
  //                   routing prefix tree, membership. Carries a generation;
  //                   a host already at that generation ignores the message
  //                   (so re-initializing a healed-but-alive daemon keeps
  //                   its data, while a restarted one rebuilds).
  //   kSetNodeDown  — membership change (StorageNode::set_down).
  //   kSetResidues  — database residue total after (incremental) indexing
  //                   (StorageNode::set_database_residues).
  // Settling is not an application message: the transports' own settle
  // round (net::kSettleProbe, message.h) flushes every mode alike.
  kNodeInit = 50,
  kSetNodeDown = 51,
  kSetResidues = 52,
};

// --- Indexing ---------------------------------------------------------

struct StoreSequencePayload {
  std::uint32_t sequence = 0;
  std::string name;
  std::uint8_t alphabet = 1;
  std::vector<seq::Code> codes;

  template <class Io>
  void fields(Io& io) { io(sequence, name, alphabet, codes); }
};

struct InsertBlocksPayload {
  std::vector<Block> blocks;

  template <class Io>
  void fields(Io& io) { io(blocks); }
};

// --- Query ------------------------------------------------------------

struct Subquery {
  std::uint32_t query_offset = 0;
  vpt::Window window;

  template <class Io>
  void fields(Io& io) { io(query_offset, window); }
};

// The query-dataflow payloads below carry an obs::TraceContext so every
// node doing work for a query knows whether to record spans and which
// upstream span caused the work (the query id itself is the message's
// request_id). Result payloads don't need one: the receiver's pending
// state already holds the query's context.

struct QueryRequestPayload {
  QueryParams params;
  obs::TraceContext trace;
  std::vector<seq::Code> query;

  template <class Io>
  void fields(Io& io) { io(params, trace, query); }
};

struct GroupQueryPayload {
  QueryParams params;
  obs::TraceContext trace;
  std::vector<seq::Code> query;
  std::vector<Subquery> subqueries;

  template <class Io>
  void fields(Io& io) { io(params, trace, query, subqueries); }
};

// Split GroupQueryPayload encoding: a GroupQuery's fields start with
// exactly a QueryRequest's (params, trace, query), so the coordinator
// encodes that prefix once as a QueryRequestPayload and appends each
// group's subquery set, instead of copying the full query into a payload
// struct per selected group. encode_group_query(
// encode_payload(QueryRequestPayload{params, trace, query}), subs) is
// byte-identical to encode_payload(GroupQueryPayload{params, trace, query,
// subs}).
std::vector<std::uint8_t> encode_group_query(
    const std::vector<std::uint8_t>& prefix,
    const std::vector<Subquery>& subqueries);

struct NodeSearchPayload {
  QueryParams params;
  obs::TraceContext trace;
  std::vector<Subquery> subqueries;

  template <class Io>
  void fields(Io& io) { io(params, trace, subqueries); }
};

// A filtered n-NN candidate: block-sized match between query and subject.
struct Seed {
  std::uint32_t sequence = 0;
  std::uint32_t subject_start = 0;
  std::uint32_t query_offset = 0;
  std::uint32_t length = 0;
  double identity = 0.0;
  double c_score = 0.0;

  std::ptrdiff_t diagonal() const {
    return static_cast<std::ptrdiff_t>(subject_start) -
           static_cast<std::ptrdiff_t>(query_offset);
  }

  template <class Io>
  void fields(Io& io) {
    io(sequence, subject_start, query_offset, length, identity, c_score);
  }
};

struct NodeSearchResultPayload {
  std::vector<Seed> seeds;

  template <class Io>
  void fields(Io& io) { io(seeds); }
};

// An ungapped-extended anchor (group entry output / coordinator input).
struct Anchor {
  std::uint32_t sequence = 0;
  std::uint32_t q_begin = 0;
  std::uint32_t q_end = 0;
  std::uint32_t s_begin = 0;
  std::uint32_t s_end = 0;
  std::int32_t score = 0;
  // Certified score: the best *actually scored* ungapped run folded into
  // this anchor. `score` can be a union estimate after same-diagonal
  // merging (merge_anchors), so it may overstate what any alignment
  // achieves; `cert` never does — every constituent run lies on this
  // anchor's diagonal inside [q_begin,q_end)×[s_begin,s_end), so a banded
  // DP over the anchor is guaranteed to score at least `cert`. The
  // coordinator's score-bounded pruning builds its guaranteed-hit cutoff
  // from certs; using estimates there would make pruning inexact.
  std::int32_t cert = 0;
  // Subject length, when the group entry learned it: a ranged fetch the
  // home node clamped short reveals exactly where the sequence ends (the
  // returned end IS the length). 0 = unknown. The coordinator's pruning
  // uses it to cap how many subject columns a gapped alignment could
  // possibly use — without it, short subjects look as capable as long
  // ones and the score ceiling never prunes anything.
  std::uint32_t subject_len = 0;

  std::ptrdiff_t diagonal() const {
    return static_cast<std::ptrdiff_t>(s_begin) -
           static_cast<std::ptrdiff_t>(q_begin);
  }
  std::uint32_t length() const { return q_end - q_begin; }
  double normalized_score() const {
    return length() == 0 ? 0.0
                         : static_cast<double>(score) /
                               static_cast<double>(length());
  }

  template <class Io>
  void fields(Io& io) {
    io(sequence, q_begin, q_end, s_begin, s_end, score, cert, subject_len);
  }
};

struct GroupResultPayload {
  std::vector<Anchor> anchors;

  template <class Io>
  void fields(Io& io) { io(anchors); }
};

// --- Sequence repository ------------------------------------------------

// Purpose tag so a node acting simultaneously as group entry and as
// coordinator for one query can route fetch responses to the right pending
// state machine.
enum class FetchPurpose : std::uint8_t {
  kGroupExtension = 0,
  kGappedExtension = 1,
};

struct FetchRangePayload {
  std::uint8_t purpose = 0;
  std::uint32_t token = 0;  // requester-local correlation
  std::uint32_t sequence = 0;
  std::uint32_t start = 0;
  std::uint32_t length = 0;
  obs::TraceContext trace;

  template <class Io>
  void fields(Io& io) { io(purpose, token, sequence, start, length, trace); }
};

struct FetchRangeResultPayload {
  std::uint8_t purpose = 0;
  std::uint32_t token = 0;
  std::uint32_t sequence = 0;
  std::uint32_t start = 0;           // clamped actual start
  std::uint32_t sequence_length = 0;  // full subject length
  std::string sequence_name;
  std::vector<seq::Code> codes;

  template <class Io>
  void fields(Io& io) {
    io(purpose, token, sequence, start, sequence_length, sequence_name, codes);
  }
};

// --- Results ------------------------------------------------------------

struct QueryResultPayload {
  std::vector<align::AlignmentHit> hits;

  template <class Io>
  void fields(Io& io) { io(hits); }
};

// --- Observability ------------------------------------------------------

// One node's spans for one query, answering kCollectTrace.
struct TraceReportPayload {
  std::vector<obs::SpanRecord> spans;

  template <class Io>
  void fields(Io& io) { io(spans); }
};

// --- Cluster control (socket deployment) --------------------------------

// Everything a mendel-node daemon needs to construct its StorageNodes:
// the exact inputs Client::spawn_nodes feeds StorageNodeConfig, shipped as
// bytes. `prefix_tree` holds vpt::VpPrefixTree::encode output (the same
// byte-stable encoding index snapshots use).
struct NodeInitPayload {
  std::uint64_t generation = 0;
  std::uint8_t alphabet = 1;
  // cluster::TopologyConfig, field by field.
  std::uint32_t num_groups = 0;
  std::uint32_t nodes_per_group = 0;
  std::uint64_t ring_virtual_nodes = 0;
  std::uint32_t replication = 1;
  std::uint32_t sequence_replication = 1;
  // Groups of nodes added beyond the dense initial layout (add_node), in
  // id order — mirrors the index-snapshot encoding of grown topologies.
  std::vector<std::uint32_t> extra_node_groups;
  std::uint64_t bucket_capacity = kDefaultBucketCapacity;
  std::uint64_t database_residues = 0;
  // Node ids currently marked down, so a daemon (re)joining mid-outage
  // starts with the cluster's membership view instead of an empty one.
  std::vector<std::uint32_t> down_nodes;
  std::vector<std::uint8_t> prefix_tree;

  template <class Io>
  void fields(Io& io) {
    io(generation, alphabet, num_groups, nodes_per_group, ring_virtual_nodes,
       replication, sequence_replication, extra_node_groups, bucket_capacity,
       database_residues, down_nodes, prefix_tree);
  }
};

struct SetNodeDownPayload {
  std::uint32_t node = 0;
  bool down = false;

  template <class Io>
  void fields(Io& io) { io(node, down); }
};

struct SetResiduesPayload {
  std::uint64_t residues = 0;

  template <class Io>
  void fields(Io& io) { io(residues); }
};

// Helper: serialize any payload struct into message bytes.
template <typename Payload>
std::vector<std::uint8_t> encode_payload(const Payload& payload) {
  CodecWriter writer;
  writer(payload);
  return writer.take();
}

template <typename Payload>
Payload decode_payload(std::span<const std::uint8_t> bytes) {
  CodecReader reader(bytes);
  Payload payload;
  reader(payload);
  // Strict framing: a payload must consume its buffer exactly. Trailing
  // bytes mean a mis-framed or forged message, and tolerating them would
  // let two different byte strings decode to the same value — breaking the
  // decode∘encode round-trip identity the fuzz harnesses pin.
  if (!reader.done()) {
    throw DecodeError("decode_payload: " + std::to_string(reader.remaining()) +
                      " trailing bytes after payload");
  }
  return payload;
}

// --- Untrusted-boundary semantic validation -----------------------------
//
// Framing-valid bytes can still carry semantically poisonous values
// (residue codes past the alphabet — a distance-LUT index out of bounds —
// or inverted anchor/seed intervals feeding unsigned arithmetic). These
// helpers raise DecodeError, the same category as framing failures, so
// StorageNode's bad-frame guard handles both uniformly. They are called at
// the trust boundary (message ingress), never on internally produced data.

// Every code must be < cardinality (the distance-LUT dimension).
void validate_codes(std::span<const seq::Code> codes, std::size_t cardinality,
                    const char* what);

// q/s intervals must be well-ordered (end >= begin) and spans must agree
// with each other within 32-bit arithmetic.
void validate_anchor(const Anchor& anchor);

// Seed windows must not wrap 32-bit offsets.
void validate_seed(const Seed& seed);

}  // namespace mendel::core
