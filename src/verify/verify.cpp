#include "src/verify/verify.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <utility>

#include "src/common/error.h"
#include "src/mendel/protocol.h"
#include "src/vptree/window_arena.h"

namespace mendel::verify {

namespace {

bool capped(const AuditReport& report) {
  return report.violations.size() >= kMaxAuditViolations;
}

void add(AuditReport& report, std::string violation) {
  if (!capped(report)) report.violations.push_back(std::move(violation));
}

std::string block_ident(std::uint32_t node, const core::Block& block) {
  return "node " + std::to_string(node) + ": block (seq " +
         std::to_string(block.sequence) + ", start " +
         std::to_string(block.start) + ")";
}

// Shared placement/orphan logic over any per-node (blocks, sequence ids)
// view — the live cluster and the snapshot audits both feed it.
struct ShardFacts {
  std::uint32_t id = 0;
  std::vector<core::Block> blocks;
  std::vector<seq::SequenceId> sequence_ids;
};

void audit_shards(const std::vector<ShardFacts>& shards,
                  const cluster::Topology& topology,
                  const vpt::VpPrefixTree& tree, AuditReport& report) {
  std::set<seq::SequenceId> stored_anywhere;
  for (const ShardFacts& shard : shards) {
    for (seq::SequenceId sid : shard.sequence_ids) {
      stored_anywhere.insert(sid);
    }
  }

  for (const ShardFacts& shard : shards) {
    ++report.nodes_audited;
    std::set<std::pair<seq::SequenceId, std::uint32_t>> seen;
    const std::uint32_t own_group = topology.address(shard.id).group;
    for (const core::Block& block : shard.blocks) {
      ++report.blocks_audited;
      if (capped(report)) return;
      if (!seen.insert({block.sequence, block.start}).second) {
        add(report, block_ident(shard.id, block) + " is stored twice");
        continue;
      }
      if (block.window.size() != tree.window_length()) {
        add(report, block_ident(shard.id, block) + " window length " +
                        std::to_string(block.window.size()) +
                        " != routing tree window length " +
                        std::to_string(tree.window_length()));
        continue;  // the placement hash needs a well-formed window
      }
      // Tier 1: the window must re-hash to the group that stores it.
      const std::uint64_t prefix = tree.hash(block.window);
      const std::uint32_t group = topology.group_for_prefix(prefix);
      if (group != own_group) {
        add(report, block_ident(shard.id, block) + " hashes to group " +
                        std::to_string(group) + " but is stored in group " +
                        std::to_string(own_group));
        continue;
      }
      // Tier 2: the intra-group ring owners must include the node.
      const auto owners =
          topology.nodes_for_key(group, core::block_placement_key(block));
      if (std::find(owners.begin(), owners.end(), shard.id) == owners.end()) {
        add(report, block_ident(shard.id, block) +
                        " is not among the ring owners of its placement key");
        continue;
      }
      // Orphan check: the referenced sequence must live on some shard.
      if (!stored_anywhere.contains(block.sequence)) {
        add(report, block_ident(shard.id, block) +
                        " references a sequence no shard stores");
      }
    }
    for (seq::SequenceId sid : shard.sequence_ids) {
      ++report.sequences_audited;
      if (capped(report)) return;
      const auto homes =
          topology.sequence_homes(core::sequence_placement_key(sid));
      if (std::find(homes.begin(), homes.end(), shard.id) == homes.end()) {
        add(report, "node " + std::to_string(shard.id) + ": sequence " +
                        std::to_string(sid) + " is stored off its home ring");
      }
    }
  }
}

}  // namespace

// --- live cluster -----------------------------------------------------

AuditReport audit_client(const core::Client& client) {
  AuditReport report;
  if (!client.indexed()) {
    report.violations.push_back("client is not indexed; nothing to audit");
    return report;
  }
  for (auto& violation : client.prefix_tree().validate()) {
    add(report, "prefix tree: " + std::move(violation));
  }
  if (client.node_count() != client.topology().total_nodes()) {
    add(report, "client hosts " + std::to_string(client.node_count()) +
                    " nodes but the topology lists " +
                    std::to_string(client.topology().total_nodes()));
  }

  // Node-local audits (vp-tree structure, bookkeeping, placement)...
  std::vector<ShardFacts> shards;
  shards.reserve(client.node_count());
  for (std::size_t id = 0; id < client.node_count(); ++id) {
    const core::StorageNode& node = client.node(static_cast<net::NodeId>(id));
    for (auto& violation : node.audit(kMaxAuditViolations)) {
      add(report, std::move(violation));
    }
    ShardFacts facts;
    facts.id = static_cast<std::uint32_t>(id);
    facts.blocks = node.blocks();
    facts.sequence_ids = node.stored_sequence_ids();
    shards.push_back(std::move(facts));
  }
  // ...then the cluster-wide pass (placement re-checked from materialized
  // blocks plus the orphan cross-check no single node can run).
  audit_shards(shards, client.topology(), client.prefix_tree(), report);
  return report;
}

// --- snapshots --------------------------------------------------------

AuditReport audit_snapshot(const core::Snapshot& view,
                           const cluster::TopologyConfig& base) {
  AuditReport report;
  if (view.prefix_tree == nullptr) {
    report.violations.push_back("snapshot view has no prefix tree");
    return report;
  }
  for (auto& violation : view.prefix_tree->validate()) {
    add(report, "prefix tree: " + std::move(violation));
  }

  // Rebuild the topology the way load_index() would: shape from the
  // snapshot, ring parameters from the caller's base config.
  cluster::TopologyConfig config = base;
  config.num_groups = view.num_groups;
  config.nodes_per_group = view.nodes_per_group;
  std::unique_ptr<cluster::Topology> topology;
  try {
    topology = std::make_unique<cluster::Topology>(config);
    for (std::uint32_t group : view.extra_groups) topology->add_node(group);
    topology->bind_prefixes(view.prefix_tree->leaf_prefixes());
  } catch (const Error& e) {
    add(report, std::string("snapshot topology is not constructible: ") +
                    e.what());
    return report;
  }

  if (view.shards.size() != topology->total_nodes()) {
    add(report, "snapshot holds " + std::to_string(view.shards.size()) +
                    " node shards but the topology lists " +
                    std::to_string(topology->total_nodes()) + " nodes");
    return report;  // per-shard placement below would misattribute ids
  }

  const std::size_t cardinality = seq::cardinality(view.alphabet);
  std::vector<ShardFacts> shards;
  shards.reserve(view.shards.size());
  for (const core::SnapshotShard& shard : view.shards) {
    if (shard.id >= topology->total_nodes()) {
      add(report, "shard claims node id " + std::to_string(shard.id) +
                      " outside the topology");
      continue;
    }
    if (topology->address(shard.id).group != shard.group) {
      add(report, "shard for node " + std::to_string(shard.id) +
                      " is filed under group " + std::to_string(shard.group) +
                      " but the topology places the node in group " +
                      std::to_string(topology->address(shard.id).group));
    }
    ShardFacts facts;
    facts.id = shard.id;
    // Packed-row well-formedness: stray bits above the packed width (or
    // codes outside the alphabet) would desynchronize the fused packed
    // kernels from the scalar oracle, so they are placement-grade
    // corruption even though the framing parses.
    const auto materialized = shard.materialize_blocks();
    facts.blocks.reserve(materialized.size());
    for (std::size_t b = 0; b < materialized.size(); ++b) {
      if (capped(report)) return report;
      const core::Block& block = materialized[b];
      const auto stored = shard.blocks[b].row;
      std::vector<std::uint8_t> reenc(stored.size(), 0);
      vpt::WindowArena::encode_row_to(
          reenc.data(), {block.window.data(), block.window.size()},
          shard.packed_bits);
      if (!std::equal(reenc.begin(), reenc.end(), stored.begin(),
                      stored.end())) {
        add(report, block_ident(shard.id, block) +
                        " has a malformed packed row (stray bits above the " +
                        std::to_string(unsigned{shard.packed_bits}) +
                        "-bit code width)");
      }
      bool in_alphabet = true;
      for (const seq::Code code : block.window) {
        if (code >= cardinality) {
          add(report, block_ident(shard.id, block) + " stores code " +
                          std::to_string(unsigned{code}) +
                          " outside the alphabet (cardinality " +
                          std::to_string(cardinality) + ")");
          in_alphabet = false;
          break;
        }
      }
      // A window with out-of-alphabet codes cannot be pushed through the
      // distance matrix, so the placement audit skips it (it is already
      // reported above).
      if (in_alphabet) facts.blocks.push_back(block);
    }
    for (const auto& sequence : shard.sequences) {
      facts.sequence_ids.push_back(sequence.id);
    }
    shards.push_back(std::move(facts));
  }
  audit_shards(shards, *topology, *view.prefix_tree, report);
  return report;
}

AuditReport audit_snapshot_file(const std::string& path,
                                const cluster::TopologyConfig& base) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    AuditReport report;
    report.violations.push_back("cannot open snapshot file " + path);
    return report;
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  try {
    return audit_snapshot(core::read_snapshot(std::move(bytes)), base);
  } catch (const std::exception& e) {
    AuditReport report;
    report.violations.push_back("snapshot " + path +
                                " failed to parse: " + e.what());
    return report;
  }
}

// --- wire protocol ----------------------------------------------------

namespace {

template <typename Payload>
void roundtrip(const char* name, const Payload& payload,
               std::vector<std::string>& out) {
  try {
    // decode_payload's strict framing reports a partially consumed buffer.
    const std::vector<std::uint8_t> original = core::encode_payload(payload);
    const auto decoded = core::decode_payload<Payload>(original);
    if (core::encode_payload(decoded) != original) {
      out.push_back(std::string(name) +
                    ": re-encoding the decoded payload changed the bytes");
    }
  } catch (const std::exception& e) {
    out.push_back(std::string(name) + ": codec round-trip threw: " +
                  e.what());
  }
}

core::Block sample_block(seq::SequenceId sequence, std::uint32_t start) {
  core::Block block;
  block.sequence = sequence;
  block.start = start;
  block.window = {1, 2, 3, 4, 5, 6, 7, 8};
  return block;
}

core::Seed sample_seed() {
  core::Seed seed;
  seed.sequence = 7;
  seed.subject_start = 120;
  seed.query_offset = 16;
  seed.length = 8;
  seed.identity = 0.75;
  seed.c_score = 0.5;
  return seed;
}

core::Anchor sample_anchor() {
  core::Anchor anchor;
  anchor.sequence = 9;
  anchor.q_begin = 4;
  anchor.q_end = 36;
  anchor.s_begin = 100;
  anchor.s_end = 132;
  anchor.score = 57;
  anchor.cert = 51;
  anchor.subject_len = 480;
  return anchor;
}

core::QueryParams sample_params() {
  core::QueryParams params;
  params.k = 4;
  params.n = 3;
  params.identity = 0.5;
  params.c_score = 0.25;
  params.matrix = "BLOSUM80";
  params.gapped_trigger = 1.5;
  params.band = 9;
  params.evalue = 0.01;
  params.branch_epsilon = 2.0;
  params.x_drop = 11;
  params.extension_margin = 64;
  params.max_hits = 17;
  params.max_gapped_per_bin = 3;
  params.include_subject_segment = true;
  params.min_anchor_span = 12;
  return params;
}

align::AlignmentHit sample_hit() {
  align::AlignmentHit hit;
  hit.subject_id = 11;
  hit.subject_name = "sp|TEST|SAMPLE";
  hit.alignment.hsp = {3, 40, 100, 139, 88};
  hit.alignment.columns = 39;
  hit.alignment.identities = 30;
  hit.alignment.gap_columns = 2;
  hit.alignment.cigar = "20M2D17M";
  hit.bit_score = 41.5;
  hit.evalue = 1e-6;
  hit.subject_segment = {9, 8, 7, 6};
  return hit;
}

}  // namespace

std::vector<std::string> protocol_roundtrip_check() {
  std::vector<std::string> out;

  core::StoreSequencePayload store;
  store.sequence = 3;
  store.name = "chr1";
  store.alphabet = 2;
  store.codes = {0, 1, 2, 3, 2, 1, 0};
  roundtrip("StoreSequencePayload", store, out);

  core::InsertBlocksPayload insert;
  insert.blocks = {sample_block(1, 0), sample_block(1, 8),
                   sample_block(2, 24)};
  roundtrip("InsertBlocksPayload", insert, out);

  core::Subquery subquery;
  subquery.query_offset = 24;
  subquery.window = {5, 4, 3, 2, 1, 0, 1, 2};
  roundtrip("Subquery", subquery, out);

  roundtrip("QueryParams", sample_params(), out);

  const obs::TraceContext sample_trace{1, (7ULL << 32) | 3};

  core::QueryRequestPayload request;
  request.params = sample_params();
  request.trace = sample_trace;
  request.query = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  roundtrip("QueryRequestPayload", request, out);

  core::GroupQueryPayload group_query;
  group_query.params = sample_params();
  group_query.trace = sample_trace;
  group_query.query = request.query;
  group_query.subqueries = {subquery};
  roundtrip("GroupQueryPayload", group_query, out);

  // The coordinator serializes GroupQuery as an encoded QueryRequest
  // prefix plus the subqueries; it must stay byte-identical to the
  // GroupQuery field list.
  {
    const auto split = core::encode_group_query(
        core::encode_payload(request), group_query.subqueries);
    if (split != core::encode_payload(group_query)) {
      out.push_back(
          "encode_group_query: split encoding differs from "
          "GroupQueryPayload's field list");
    }
  }

  core::NodeSearchPayload node_search;
  node_search.params = sample_params();
  node_search.trace = sample_trace.child((2ULL << 32) | 1);
  node_search.subqueries = {subquery, subquery};
  roundtrip("NodeSearchPayload", node_search, out);

  roundtrip("Seed", sample_seed(), out);

  core::NodeSearchResultPayload search_result;
  search_result.seeds = {sample_seed(), sample_seed()};
  roundtrip("NodeSearchResultPayload", search_result, out);

  roundtrip("Anchor", sample_anchor(), out);

  core::GroupResultPayload group_result;
  group_result.anchors = {sample_anchor()};
  roundtrip("GroupResultPayload", group_result, out);

  core::FetchRangePayload fetch;
  fetch.purpose = 1;
  fetch.token = 42;
  fetch.sequence = 7;
  fetch.start = 96;
  fetch.length = 160;
  fetch.trace = sample_trace;
  roundtrip("FetchRangePayload", fetch, out);

  core::FetchRangeResultPayload fetched;
  fetched.purpose = 1;
  fetched.token = 42;
  fetched.sequence = 7;
  fetched.start = 96;
  fetched.sequence_length = 4096;
  fetched.sequence_name = "chr7";
  fetched.codes = {1, 1, 2, 3, 5, 8};
  roundtrip("FetchRangeResultPayload", fetched, out);

  core::QueryResultPayload result;
  result.hits = {sample_hit()};
  roundtrip("QueryResultPayload", result, out);

  core::TraceReportPayload trace_report;
  obs::SpanRecord span;
  span.name = "node.search";
  span.node = 7;
  span.query_id = 99;
  span.span_id = (7ULL << 32) | 3;
  span.parent_span = (2ULL << 32) | 1;
  span.start = 0.015625;  // exactly representable: byte-stable via f64
  span.duration_ns = 123456;
  span.value = 12;
  trace_report.spans = {span, span};
  roundtrip("TraceReportPayload", trace_report, out);

  core::NodeInitPayload init;
  init.generation = 2;
  init.alphabet = 0;
  init.num_groups = 2;
  init.nodes_per_group = 3;
  init.ring_virtual_nodes = 16;
  init.replication = 2;
  init.sequence_replication = 1;
  init.extra_node_groups = {1, 0};
  init.bucket_capacity = 256;
  init.database_residues = 12345;
  init.down_nodes = {4};
  init.prefix_tree = {1, 2, 3, 4};
  roundtrip("NodeInitPayload", init, out);

  core::SetNodeDownPayload node_down;
  node_down.node = 5;
  node_down.down = true;
  roundtrip("SetNodeDownPayload", node_down, out);

  core::SetResiduesPayload residues;
  residues.residues = 987654321;
  roundtrip("SetResiduesPayload", residues, out);

  return out;
}

}  // namespace mendel::verify
