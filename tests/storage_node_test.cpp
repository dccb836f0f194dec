// Message-level unit tests of the StorageNode actor: each server-side role
// exercised in isolation with hand-crafted protocol messages over a
// deterministic SimTransport.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>

#include "src/common/error.h"
#include "src/mendel/client.h"
#include "src/mendel/indexer.h"
#include "src/mendel/protocol.h"
#include "src/mendel/storage_node.h"
#include "src/net/sim_transport.h"
#include "src/net/thread_transport.h"
#include "src/scoring/distance.h"
#include "src/scoring/matrix.h"
#include "src/workload/generator.h"

namespace mendel::core {
namespace {

// Forwards every message to a node; before and after each reply a fan-in
// waits for, also hands the node hostile variants of it:
//   * before a fetch result: a copy for the wrong sequence and a copy whose
//     token lies past any plan;
//   * before a node-search or group result (the fan-in still running, so
//     the role's fetch stage has issued nothing): a fetch result for it;
//   * after every such reply: an exact duplicate.
// A variant that reaches the query's live pending entry must be rejected
// and counted in `net.decode_errors`; one that arrives after the entry
// finished is stale and ignored. `rejected` tallies the former per kind (one
// query in flight at a time, so "live" is "the role has a pending entry").
class HostileReplies final : public net::Actor {
 public:
  explicit HostileReplies(StorageNode& node) : node_(node) {}

  void handle(const net::Message& message, net::Context& ctx) override {
    switch (message.type) {
      case kFetchRangeResult: {
        auto payload = decode_payload<FetchRangeResultPayload>(message.payload);
        const bool group =
            payload.purpose ==
            static_cast<std::uint8_t>(FetchPurpose::kGroupExtension);
        auto forged = payload;
        forged.sequence += 1;
        inject(message, forged, group, "wrong sequence", ctx);
        forged = payload;
        forged.token = 1u << 30;
        inject(message, forged, group, "out-of-range token", ctx);
        node_.handle(message, ctx);
        deliver(message, group, "duplicate fetch", ctx);
        return;
      }
      case kNodeSearchResult:
      case kGroupResult: {
        const bool group = message.type == kNodeSearchResult;
        FetchRangeResultPayload unissued;
        unissued.purpose = static_cast<std::uint8_t>(
            group ? FetchPurpose::kGroupExtension
                  : FetchPurpose::kGappedExtension);
        inject(message, unissued, group, "unissued token", ctx);
        node_.handle(message, ctx);
        deliver(message, group, "duplicate fan-in reply", ctx);
        return;
      }
      default:
        node_.handle(message, ctx);
    }
  }

  std::map<std::string, std::size_t> rejected;

 private:
  void inject(const net::Message& like, const FetchRangeResultPayload& payload,
              bool group, const std::string& kind, net::Context& ctx) {
    net::Message forged = like;
    forged.type = kFetchRangeResult;
    forged.payload = encode_payload(payload);
    deliver(forged, group, kind, ctx);
  }
  void deliver(const net::Message& message, bool group,
               const std::string& kind, net::Context& ctx) {
    const bool live = (group ? node_.pending_group_queries()
                             : node_.pending_coordinator_queries()) > 0;
    node_.handle(message, ctx);
    if (live) ++rejected[kind + (group ? " @group" : " @coordinator")];
  }

  StorageNode& node_;
};

// A tiny two-group cluster whose internals the tests can poke directly,
// over the simulator or over real threads (one dispatch thread per node).
// With `hostile`, every node sits behind a HostileReplies wrapper.
template <class Transport>
struct BasicMiniCluster {
  static constexpr bool kThreaded =
      std::is_same_v<Transport, net::ThreadTransport>;

  cluster::Topology topology;
  const score::DistanceMatrix& distance;
  seq::SequenceStore store;
  vpt::VpPrefixTree prefix_tree;
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::vector<std::unique_ptr<HostileReplies>> hostile;
  std::mutex inbox_mu;
  std::vector<net::Message> client_inbox;
  std::unique_ptr<net::FunctionActor> client;
  // Declared last so a threaded transport stops its dispatch threads
  // before the actors they call are destroyed.
  Transport transport;

  explicit BasicMiniCluster(bool with_hostile = false)
      : topology(make_config()),
        distance(score::default_distance(seq::Alphabet::kProtein)),
        store(make_store()),
        prefix_tree(make_tree()),
        transport(make_transport()) {
    topology.bind_prefixes(prefix_tree.leaf_prefixes());
    StorageNodeConfig config;
    config.topology = &topology;
    config.prefix_tree = &prefix_tree;
    config.distance = &distance;
    config.metrics = &registry;
    config.alphabet = seq::Alphabet::kProtein;
    config.database_residues = store.total_residues();
    // These tests address nodes directly with hand-crafted, unrouted
    // blocks; the MENDEL_CHECKED placement audit would rightly reject
    // them, so it is opted out at the node level.
    config.checked_placement_audit = false;
    for (net::NodeId id = 0; id < topology.total_nodes(); ++id) {
      nodes.push_back(std::make_unique<StorageNode>(id, config));
      net::Actor* actor = nodes.back().get();
      if (with_hostile) {
        hostile.push_back(std::make_unique<HostileReplies>(*nodes.back()));
        actor = hostile.back().get();
      }
      transport.register_actor(id, actor);
    }
    client = std::make_unique<net::FunctionActor>(
        [this](const net::Message& m, net::Context&) {
          std::lock_guard lock(inbox_mu);
          client_inbox.push_back(m);
        });
    transport.register_actor(net::kClientNode, client.get());
    if constexpr (kThreaded) transport.start();
  }

  static Transport make_transport() {
    if constexpr (kThreaded) {
      return {};
    } else {
      return Transport(net::CostModel{.measured_cpu = false});
    }
  }

  static cluster::TopologyConfig make_config() {
    cluster::TopologyConfig config;
    config.num_groups = 2;
    config.nodes_per_group = 2;
    return config;
  }

  static seq::SequenceStore make_store() {
    workload::DatabaseSpec spec;
    spec.families = 3;
    spec.members_per_family = 3;
    spec.background_sequences = 4;
    spec.min_length = 120;
    spec.max_length = 250;
    spec.seed = 11;
    return workload::generate_database(spec);
  }

  vpt::VpPrefixTree make_tree() {
    IndexingOptions options;
    options.window_length = 8;
    options.sample_size = 128;
    Indexer indexer(&topology, &distance, options);
    return indexer.build_prefix_tree(store, {.cutoff_depth = 3});
  }

  void settle() {
    if constexpr (kThreaded) {
      transport.wait_idle();
    } else {
      transport.run_until_idle();
    }
  }

  void index_everything() {
    IndexingOptions options;
    options.window_length = 8;
    options.sample_size = 128;
    Indexer indexer(&topology, &distance, options);
    indexer.index_store(store, prefix_tree, transport, net::kClientNode);
    settle();
  }

  // Frames the nodes rejected, read from the registry they share.
  std::uint64_t decode_errors() {
    return registry.counter("net.decode_errors").value();
  }
  // The nodes that rejected a frame, in id order.
  std::vector<net::NodeId> rejecting_nodes() const {
    std::vector<net::NodeId> ids;
    for (const auto& node : nodes) {
      if (!node->last_decode_error().empty()) ids.push_back(node->id());
    }
    return ids;
  }

  void send(net::NodeId to, std::uint32_t type, std::uint64_t request_id,
            std::vector<std::uint8_t> payload) {
    net::Message m;
    m.from = net::kClientNode;
    m.to = to;
    m.type = type;
    m.request_id = request_id;
    m.payload = std::move(payload);
    transport.send(std::move(m));
  }
};

using MiniCluster = BasicMiniCluster<net::SimTransport>;

TEST(StorageNode, StoreSequenceAndFetchRange) {
  MiniCluster mini;
  StoreSequencePayload stored;
  stored.sequence = 3;
  stored.name = "probe sequence";
  stored.codes = seq::encode_string(seq::Alphabet::kProtein,
                                    "MKVLAWHHRRMKVLAWHHRR");
  mini.send(1, kStoreSequence, 0, encode_payload(stored));
  mini.transport.run_until_idle();
  EXPECT_EQ(mini.nodes[1]->sequence_count(), 1u);

  FetchRangePayload fetch;
  fetch.purpose = 0;
  fetch.token = 9;
  fetch.sequence = 3;
  fetch.start = 5;
  fetch.length = 8;
  mini.send(1, kFetchRange, 77, encode_payload(fetch));
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  const auto reply = decode_payload<FetchRangeResultPayload>(
      mini.client_inbox[0].payload);
  EXPECT_EQ(reply.token, 9u);
  EXPECT_EQ(reply.start, 5u);
  EXPECT_EQ(reply.sequence_length, 20u);
  EXPECT_EQ(reply.sequence_name, "probe sequence");
  EXPECT_EQ(seq::to_string(seq::Alphabet::kProtein, reply.codes),
            "WHHRRMKV");
  EXPECT_EQ(mini.client_inbox[0].request_id, 77u);
}

TEST(StorageNode, FetchRangeClampsToSequenceEnd) {
  MiniCluster mini;
  StoreSequencePayload stored;
  stored.sequence = 1;
  stored.name = "short";
  stored.codes = seq::encode_string(seq::Alphabet::kProtein, "MKVLAW");
  mini.send(0, kStoreSequence, 0, encode_payload(stored));
  // Drain before fetching: the smaller fetch message would otherwise pay
  // less transfer delay and overtake the store.
  mini.transport.run_until_idle();
  FetchRangePayload fetch;
  fetch.sequence = 1;
  fetch.start = 4;
  fetch.length = 100;
  mini.send(0, kFetchRange, 1, encode_payload(fetch));
  mini.transport.run_until_idle();
  const auto reply = decode_payload<FetchRangeResultPayload>(
      mini.client_inbox[0].payload);
  EXPECT_EQ(seq::to_string(seq::Alphabet::kProtein, reply.codes), "AW");
}

TEST(StorageNode, FetchRangeEndDoesNotWrapPastU32) {
  // start + length overflows 32 bits; the end must clamp to the sequence
  // end, not wrap below the start.
  MiniCluster mini;
  StoreSequencePayload stored;
  stored.sequence = 1;
  stored.name = "long";
  stored.codes.assign(300, 5);
  mini.send(0, kStoreSequence, 0, encode_payload(stored));
  mini.transport.run_until_idle();
  FetchRangePayload fetch;
  fetch.sequence = 1;
  fetch.start = 100;
  fetch.length = 0xFFFFFFFFu;
  mini.send(0, kFetchRange, 1, encode_payload(fetch));
  EXPECT_NO_THROW(mini.transport.run_until_idle());
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  const auto reply = decode_payload<FetchRangeResultPayload>(
      mini.client_inbox[0].payload);
  EXPECT_EQ(reply.start, 100u);
  EXPECT_EQ(reply.codes.size(), 200u);
  EXPECT_EQ(mini.decode_errors(), 0u);
}

TEST(StorageNode, FetchUnknownSequenceReturnsEmpty) {
  MiniCluster mini;
  FetchRangePayload fetch;
  fetch.sequence = 999;
  fetch.start = 0;
  fetch.length = 10;
  mini.send(0, kFetchRange, 1, encode_payload(fetch));
  mini.transport.run_until_idle();
  const auto reply = decode_payload<FetchRangeResultPayload>(
      mini.client_inbox[0].payload);
  EXPECT_TRUE(reply.codes.empty());
  EXPECT_EQ(reply.sequence_length, 0u);
}

TEST(StorageNode, InsertBlocksGrowLocalTree) {
  MiniCluster mini;
  InsertBlocksPayload payload;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Block block;
    block.sequence = 1;
    block.start = static_cast<std::uint32_t>(i);
    const auto s = workload::random_sequence(seq::Alphabet::kProtein, 8,
                                             "w", rng);
    block.window.assign(s.codes().begin(), s.codes().end());
    payload.blocks.push_back(std::move(block));
  }
  mini.send(2, kInsertBlocks, 0, encode_payload(payload));
  mini.transport.run_until_idle();
  EXPECT_EQ(mini.nodes[2]->block_count(), 100u);
  EXPECT_EQ(mini.nodes[2]->counters().blocks_inserted, 100u);
}

TEST(StorageNode, NodeSearchAppliesFilters) {
  MiniCluster mini;
  // Plant one block; search with its exact window and with thresholds that
  // cannot pass.
  InsertBlocksPayload payload;
  Block block;
  block.sequence = 7;
  block.start = 42;
  block.window =
      seq::encode_string(seq::Alphabet::kProtein, "MKVLAWHH");
  payload.blocks.push_back(block);
  mini.send(3, kInsertBlocks, 0, encode_payload(payload));
  mini.transport.run_until_idle();

  NodeSearchPayload search;
  search.params.n = 4;
  search.params.identity = 0.9;
  search.params.c_score = 0.9;
  Subquery sub;
  sub.query_offset = 16;
  sub.window = block.window;
  search.subqueries.push_back(sub);
  mini.send(3, kNodeSearch, 5, encode_payload(search));
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  auto reply = decode_payload<NodeSearchResultPayload>(
      mini.client_inbox[0].payload);
  ASSERT_EQ(reply.seeds.size(), 1u);
  EXPECT_EQ(reply.seeds[0].sequence, 7u);
  EXPECT_EQ(reply.seeds[0].subject_start, 42u);
  EXPECT_EQ(reply.seeds[0].query_offset, 16u);
  EXPECT_DOUBLE_EQ(reply.seeds[0].identity, 1.0);

  // Impossible identity threshold: no seeds.
  mini.client_inbox.clear();
  search.params.identity = 1.1;
  mini.send(3, kNodeSearch, 6, encode_payload(search));
  mini.transport.run_until_idle();
  reply = decode_payload<NodeSearchResultPayload>(
      mini.client_inbox[0].payload);
  EXPECT_TRUE(reply.seeds.empty());
}

TEST(StorageNode, QueryRequestTooShortAnswersEmptyImmediately) {
  MiniCluster mini;
  mini.index_everything();
  QueryRequestPayload request;
  request.query = seq::encode_string(seq::Alphabet::kProtein, "MKV");
  mini.send(0, kQueryRequest, 50, encode_payload(request));
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  EXPECT_EQ(mini.client_inbox[0].type,
            static_cast<std::uint32_t>(kQueryResult));
  const auto reply =
      decode_payload<QueryResultPayload>(mini.client_inbox[0].payload);
  EXPECT_TRUE(reply.hits.empty());
}

TEST(StorageNode, FullQueryThroughHandCraftedMessages) {
  MiniCluster mini;
  mini.index_everything();
  const auto& donor = mini.store.at(2);
  const auto window = donor.window(10, 100);
  QueryRequestPayload request;
  request.query.assign(window.begin(), window.end());
  mini.send(1, kQueryRequest, 99, encode_payload(request));
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  const auto reply =
      decode_payload<QueryResultPayload>(mini.client_inbox[0].payload);
  ASSERT_FALSE(reply.hits.empty());
  bool found = false;
  for (const auto& hit : reply.hits) found = found || hit.subject_id == 2;
  EXPECT_TRUE(found);
}

TEST(StorageNode, UnknownMessageTypeIsCountedAndDropped) {
  // A bad frame (any peer can send any type value) must not tear the node
  // down: the bad-frame guard counts it and the node keeps serving.
  MiniCluster mini;
  mini.send(0, 0xdead, 0, {});
  EXPECT_NO_THROW(mini.transport.run_until_idle());
  EXPECT_EQ(mini.decode_errors(), 1u);
  EXPECT_EQ(mini.rejecting_nodes(), std::vector<net::NodeId>{0});
  EXPECT_NE(mini.nodes[0]->last_decode_error().find("unknown message type"),
            std::string::npos);
}

TEST(StorageNode, TruncatedPayloadIsCountedAndDropped) {
  MiniCluster mini;
  mini.index_everything();
  // A store-sequence frame cut short mid-payload must surface as a counted
  // decode error, not a crash or a partial store.
  StoreSequencePayload payload;
  payload.sequence = 77;
  payload.name = "trunc";
  payload.codes = {0, 1, 2, 3};
  auto bytes = encode_payload(payload);
  bytes.resize(bytes.size() / 2);
  const std::size_t before = mini.nodes[0]->sequence_count();
  mini.send(0, kStoreSequence, 0, bytes);
  EXPECT_NO_THROW(mini.transport.run_until_idle());
  EXPECT_EQ(mini.decode_errors(), 1u);
  EXPECT_EQ(mini.rejecting_nodes(), std::vector<net::NodeId>{0});
  EXPECT_EQ(mini.nodes[0]->sequence_count(), before);
}

TEST(StorageNode, OutOfAlphabetCodesAreRejected) {
  MiniCluster mini;
  // Residue codes past the alphabet would index distance LUTs out of
  // bounds downstream; the ingress validation must reject the frame.
  StoreSequencePayload payload;
  payload.sequence = 78;
  payload.name = "hostile";
  payload.codes = {0, 1, 250};
  mini.send(0, kStoreSequence, 0, encode_payload(payload));
  EXPECT_NO_THROW(mini.transport.run_until_idle());
  EXPECT_EQ(mini.decode_errors(), 1u);
  EXPECT_EQ(mini.rejecting_nodes(), std::vector<net::NodeId>{0});
  EXPECT_EQ(mini.nodes[0]->sequence_count(), 0u);
}

TEST(StorageNode, StaleResponsesAreIgnored) {
  MiniCluster mini;
  mini.index_everything();
  // A NodeSearchResult / GroupResult / FetchRangeResult for an unknown
  // query id must be dropped silently (stale after completion).
  NodeSearchResultPayload stale_seeds;
  mini.send(0, kNodeSearchResult, 12345, encode_payload(stale_seeds));
  GroupResultPayload stale_group;
  mini.send(0, kGroupResult, 12345, encode_payload(stale_group));
  FetchRangeResultPayload stale_fetch;
  mini.send(0, kFetchRangeResult, 12345, encode_payload(stale_fetch));
  EXPECT_NO_THROW(mini.transport.run_until_idle());
  EXPECT_TRUE(mini.client_inbox.empty());
}

TEST(StorageNode, SaveLoadRoundTripPreservesState) {
  MiniCluster mini;
  mini.index_everything();
  const auto& node = *mini.nodes[1];

  StorageNodeConfig config;
  config.topology = &mini.topology;
  config.prefix_tree = &mini.prefix_tree;
  config.distance = &mini.distance;
  config.metrics = &mini.registry;
  config.alphabet = seq::Alphabet::kProtein;
  StorageNode restored(1, config);
  restored.load(node.save());
  EXPECT_EQ(restored.block_count(), node.block_count());
  EXPECT_EQ(restored.sequence_count(), node.sequence_count());
}

TEST(StorageNode, LoadRejectsWrongNodeId) {
  MiniCluster mini;
  mini.index_everything();
  const SnapshotShard shard = mini.nodes[1]->save();
  StorageNodeConfig config;
  config.topology = &mini.topology;
  config.prefix_tree = &mini.prefix_tree;
  config.distance = &mini.distance;
  config.metrics = &mini.registry;
  StorageNode other(2, config);
  EXPECT_THROW(other.load(shard), InvalidArgument);
}

// ---------- packed / spilled snapshot round trips ----------

// Ranked hits must be byte-identical whether the restored cluster keeps
// its packed arenas fully resident or spills them through the block store
// under a clamped budget: out-of-core storage is a memory policy, never a
// results policy.
TEST(StorageNode, SnapshotRoundTripUnderSpillBudgetMatchesAllResident) {
  workload::DatabaseSpec spec;
  spec.alphabet = seq::Alphabet::kDna;
  spec.families = 4;
  spec.members_per_family = 3;
  spec.background_sequences = 6;
  spec.min_length = 200;
  spec.max_length = 500;
  spec.seed = 91;
  const auto store = workload::generate_database(spec);

  ClientOptions options;
  options.topology.num_groups = 2;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 12;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 3;
  options.cost.measured_cpu = false;

  const std::string path = "/tmp/mendel_spill_roundtrip.bin";
  Client resident(options);
  resident.index(store);
  // DNA with no stray codes packs at 2 bits per residue.
  EXPECT_GT(resident.metrics().gauge("arena.packed_bytes"), 0);
  resident.save_index(path);

  auto spill_options = options;
  spill_options.runtime.node.arena_resident_budget = 1;  // clamps to floor
  Client restored(spill_options);
  restored.load_index(path);
  EXPECT_TRUE(restored.indexed());
  EXPECT_EQ(restored.block_counts(), resident.block_counts());

  QueryParams params;
  params.matrix = "DNA";
  params.identity = 0.6;
  params.c_score = 0.4;
  params.gapped_trigger = 1.0;
  for (const seq::SequenceId donor : {1u, 5u, 9u}) {
    const auto window = store.at(donor).window(20, 150);
    const seq::Sequence query(store.alphabet(), "probe",
                              {window.begin(), window.end()});
    const auto want = resident.query(query, params);
    const auto got = restored.query(query, params);
    ASSERT_EQ(got.hits.size(), want.hits.size()) << "donor " << donor;
    for (std::size_t i = 0; i < want.hits.size(); ++i) {
      EXPECT_EQ(got.hits[i].subject_id, want.hits[i].subject_id);
      EXPECT_EQ(got.hits[i].alignment.hsp.score,
                want.hits[i].alignment.hsp.score);
      EXPECT_EQ(got.hits[i].alignment.cigar, want.hits[i].alignment.cigar);
      EXPECT_DOUBLE_EQ(got.hits[i].evalue, want.hits[i].evalue);
    }
  }
  std::remove(path.c_str());
}

// The spilled cluster's snapshot must itself be byte-identical to the
// resident cluster's: the save path reads rows back through the block
// store without an inflate/deflate round trip.
TEST(StorageNode, SpilledClusterSavesByteIdenticalSnapshot) {
  workload::DatabaseSpec spec;
  spec.alphabet = seq::Alphabet::kDna;
  spec.families = 3;
  spec.members_per_family = 3;
  spec.background_sequences = 4;
  spec.min_length = 150;
  spec.max_length = 400;
  spec.seed = 92;
  const auto store = workload::generate_database(spec);

  ClientOptions options;
  options.topology.num_groups = 2;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 12;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 3;
  options.cost.measured_cpu = false;

  Client resident(options);
  resident.index(store);
  const std::string resident_path = "/tmp/mendel_snap_resident.bin";
  resident.save_index(resident_path);

  auto spill_options = options;
  spill_options.runtime.node.arena_resident_budget = 1;
  Client spilled(spill_options);
  spilled.index(store);
  const std::string spilled_path = "/tmp/mendel_snap_spilled.bin";
  spilled.save_index(spilled_path);

  auto slurp = [](const std::string& p) {
    std::vector<char> bytes;
    std::FILE* f = std::fopen(p.c_str(), "rb");
    EXPECT_NE(f, nullptr) << p;
    if (f != nullptr) {
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        bytes.insert(bytes.end(), buf, buf + n);
      }
      std::fclose(f);
    }
    return bytes;
  };
  EXPECT_EQ(slurp(spilled_path), slurp(resident_path));
  std::remove(resident_path.c_str());
  std::remove(spilled_path.c_str());
}

TEST(StorageNode, DownNodesExcludedFromFanOut) {
  MiniCluster mini;
  mini.index_everything();
  // Mark node 1 down everywhere (and drop its traffic).
  for (auto& node : mini.nodes) node->set_down(1, true);
  mini.transport.fail_node(1);
  const auto& donor = mini.store.at(0);
  const auto window = donor.window(0, 100);
  QueryRequestPayload request;
  request.query.assign(window.begin(), window.end());
  mini.send(0, kQueryRequest, 7, encode_payload(request));
  // Must complete without stalling (no response from node 1 is awaited).
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
}


// ---------- node search against a brute-force oracle ----------

// One node behind a simulator, fed hand-built blocks and answering
// hand-built kNodeSearch payloads; the NN cache is off, so every search
// walks the tree.
struct SearchOnlyNode {
  cluster::Topology topology{{.num_groups = 1, .nodes_per_group = 1}};
  const score::DistanceMatrix& distance;
  vpt::VpPrefixTree prefix_tree;
  obs::MetricsRegistry registry;
  std::unique_ptr<StorageNode> node;
  std::vector<net::Message> inbox;
  net::FunctionActor client{[this](const net::Message& m, net::Context&) {
    inbox.push_back(m);
  }};
  net::SimTransport transport{net::CostModel{.measured_cpu = false}};

  SearchOnlyNode(const score::DistanceMatrix& d, seq::Alphabet alphabet,
                 std::size_t resident_budget)
      : distance(d), prefix_tree(&d, {.cutoff_depth = 1}) {
    StorageNodeConfig config;
    config.topology = &topology;
    config.prefix_tree = &prefix_tree;
    config.distance = &distance;
    config.metrics = &registry;
    config.alphabet = alphabet;
    config.bucket_capacity = 32;
    config.checked_placement_audit = false;
    config.node.nn_cache_capacity = 0;
    config.node.arena_resident_budget = resident_budget;
    config.node.arena_segment_bytes = 256;
    node = std::make_unique<StorageNode>(0, config);
    transport.register_actor(0, node.get());
    transport.register_actor(net::kClientNode, &client);
  }

  void insert(const std::vector<Block>& blocks) {
    InsertBlocksPayload payload;
    payload.blocks = blocks;
    transport.send({.from = net::kClientNode,
                    .to = 0,
                    .type = kInsertBlocks,
                    .request_id = 0,
                    .payload = encode_payload(payload)});
    transport.run_until_idle();
  }

  // The seeds of each window, searched in one message (subquery i at
  // query offset i).
  std::vector<std::vector<Seed>> search(const std::vector<vpt::Window>& windows,
                                        const QueryParams& params) {
    NodeSearchPayload request;
    request.params = params;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      request.subqueries.push_back({static_cast<std::uint32_t>(i), windows[i]});
    }
    inbox.clear();
    transport.send({.from = net::kClientNode,
                    .to = 0,
                    .type = kNodeSearch,
                    .request_id = 1,
                    .payload = encode_payload(request)});
    transport.run_until_idle();
    std::vector<std::vector<Seed>> out(windows.size());
    EXPECT_EQ(inbox.size(), 1u);
    if (inbox.size() != 1) return out;
    for (const Seed& seed :
         decode_payload<NodeSearchResultPayload>(inbox[0].payload).seeds) {
      out.at(seed.query_offset).push_back(seed);
    }
    return out;
  }
};

// The node's answer by definition: every stored block within the identity
// cap, sorted by (distance, sequence, start), the first n, then the
// identity and c-score filters. `cut` counts the top-n members the
// filters dropped.
std::vector<Seed> oracle_seeds(const score::DistanceMatrix& distance,
                               const std::vector<Block>& blocks,
                               const vpt::Window& window,
                               const QueryParams& params, std::size_t& cut) {
  const double cap = (1.0 - params.identity) *
                     static_cast<double>(window.size()) * distance.max_entry();
  std::vector<std::tuple<double, std::uint32_t, std::uint32_t, const Block*>>
      ranked;
  for (const Block& block : blocks) {
    const double d = score::detail::window_distance_scalar(
        distance, window.data(), block.window.data(), window.size());
    if (d <= cap) ranked.emplace_back(d, block.sequence, block.start, &block);
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::min<std::size_t>(ranked.size(), params.n));
  const auto& matrix = score::matrix_by_name(params.matrix);
  std::vector<Seed> seeds;
  for (const auto& entry : ranked) {
    const Block& block = *std::get<3>(entry);
    const double identity = score::percent_identity(window, block.window);
    const double c = score::consecutivity_score(window, block.window, matrix);
    if (identity < params.identity || c < params.c_score) {
      ++cut;
      continue;
    }
    Seed seed;
    seed.sequence = block.sequence;
    seed.subject_start = block.start;
    seed.length = static_cast<std::uint32_t>(window.size());
    seed.identity = identity;
    seed.c_score = c;
    seeds.push_back(seed);
  }
  return seeds;
}

// Blocks over `letters` codes: random windows, each stored under several
// (sequence, start) identities in scrambled order so equal distances tie
// at every n-th place, plus probes that are stored windows with a few
// substitutions.
struct OracleData {
  std::vector<Block> blocks;
  std::vector<vpt::Window> probes;
};

OracleData oracle_data(std::size_t letters, std::uint64_t seed) {
  constexpr std::size_t kLength = 8;
  Rng rng(seed);
  OracleData data;
  std::vector<vpt::Window> distinct(150);
  for (auto& window : distinct) {
    window.resize(kLength);
    for (auto& c : window) c = static_cast<seq::Code>(rng.below(letters));
  }
  for (std::uint32_t i = 0; i < 400; ++i) {
    Block block;
    block.sequence = static_cast<seq::SequenceId>(rng.below(40));
    block.start = i;
    block.window = distinct[rng.below(distinct.size())];
    data.blocks.push_back(std::move(block));
  }
  for (std::size_t i = 0; i < 40; ++i) {
    vpt::Window probe = distinct[rng.below(distinct.size())];
    for (std::size_t m = rng.below(4); m > 0; --m) {
      probe[rng.below(kLength)] = static_cast<seq::Code>(rng.below(letters));
    }
    data.probes.push_back(std::move(probe));
  }
  return data;
}

void expect_search_matches_oracle(const score::DistanceMatrix& distance,
                                  seq::Alphabet alphabet,
                                  const std::string& matrix,
                                  std::size_t letters,
                                  const std::string& what) {
  const OracleData data = oracle_data(letters, 77);
  std::size_t cut = 0;
  // A resident arena and one spilled to a 1-byte budget.
  for (const std::size_t budget : {std::size_t{0}, std::size_t{1}}) {
    SearchOnlyNode node(distance, alphabet, budget);
    node.insert(data.blocks);
    ASSERT_EQ(node.node->block_count(), data.blocks.size()) << what;
    // 33 is the leaf size + 1; 1,000 is more than the blocks stored.
    for (const std::uint32_t n : {1u, 16u, 33u, 1000u}) {
      for (const double identity : {0.3, 0.5}) {
        for (const double c_score : {0.0, 0.4}) {
          QueryParams params;
          params.matrix = matrix;
          params.n = n;
          params.identity = identity;
          params.c_score = c_score;
          const auto got = node.search(data.probes, params);
          for (std::size_t p = 0; p < data.probes.size(); ++p) {
            const auto want =
                oracle_seeds(distance, data.blocks, data.probes[p], params, cut);
            const std::string where =
                what + " budget " + std::to_string(budget) + " n " +
                std::to_string(n) + " identity " + std::to_string(identity) +
                " c " + std::to_string(c_score) + " probe " +
                std::to_string(p);
            ASSERT_EQ(got[p].size(), want.size()) << where;
            for (std::size_t i = 0; i < want.size(); ++i) {
              EXPECT_EQ(got[p][i].sequence, want[i].sequence) << where;
              EXPECT_EQ(got[p][i].subject_start, want[i].subject_start)
                  << where;
              EXPECT_EQ(got[p][i].query_offset, p) << where;
              EXPECT_EQ(got[p][i].length, want[i].length) << where;
              EXPECT_EQ(got[p][i].identity, want[i].identity) << where;
              EXPECT_EQ(got[p][i].c_score, want[i].c_score) << where;
            }
          }
        }
      }
    }
  }
  // The filters cut inside the top n somewhere, so the order they are
  // applied in was exercised.
  EXPECT_GT(cut, 0u) << what;
}

TEST(StorageNode, NodeSearchMatchesBruteForceOracle) {
  const auto& protein = score::default_distance(seq::Alphabet::kProtein);
  ASSERT_NE(protein.quantized(), nullptr);
  expect_search_matches_oracle(protein, seq::Alphabet::kProtein, "BLOSUM62",
                               20, "protein");
  const auto& dna = score::default_distance(seq::Alphabet::kDna);
  ASSERT_NE(dna.quantized(), nullptr);
  expect_search_matches_oracle(dna, seq::Alphabet::kDna, "DNA", 4,
                               "packed DNA");
  // Sixteenths of the protein metric: exact sums (so still a metric) but
  // no quantized twin, so every distance takes the double path.
  score::DistanceMatrix sixteenths = protein;
  for (seq::Code a = 0; a < seq::cardinality(seq::Alphabet::kProtein); ++a) {
    for (seq::Code b = 0; b < seq::cardinality(seq::Alphabet::kProtein);
         ++b) {
      sixteenths.set(a, b, protein.at(a, b) / 16.0);
    }
  }
  ASSERT_FALSE(sixteenths.requantize());
  expect_search_matches_oracle(sixteenths, seq::Alphabet::kProtein,
                               "BLOSUM62", 20, "no quantized twin");
}

// n comes off the wire unchecked: a peer asking for UINT32_MAX neighbours
// gets exactly the answer of n = every stored block, with per-probe state
// sized by the blocks, not by n.
TEST(StorageNode, HugeNeighbourCountEqualsEveryBlock) {
  const auto& protein = score::default_distance(seq::Alphabet::kProtein);
  const OracleData data = oracle_data(20, 78);
  SearchOnlyNode node(protein, seq::Alphabet::kProtein, 0);
  node.insert(data.blocks);
  QueryParams params;
  params.identity = 0.0;
  params.c_score = 0.0;
  params.n = static_cast<std::uint32_t>(node.node->block_count());
  const auto all = node.search(data.probes, params);
  params.n = std::numeric_limits<std::uint32_t>::max();
  const auto huge = node.search(data.probes, params);
  ASSERT_EQ(huge.size(), all.size());
  for (std::size_t p = 0; p < all.size(); ++p) {
    ASSERT_EQ(huge[p].size(), all[p].size()) << "probe " << p;
    for (std::size_t i = 0; i < all[p].size(); ++i) {
      EXPECT_EQ(huge[p][i].sequence, all[p][i].sequence) << "probe " << p;
      EXPECT_EQ(huge[p][i].subject_start, all[p][i].subject_start)
          << "probe " << p;
    }
  }
  // Identity 0 caps nothing, so every block is every probe's neighbour.
  EXPECT_EQ(all[0].size(), node.node->block_count());
}

// ---------- duplicate and unissued replies at every fan-in ----------

// Ranked hits of one query per donor window, sent one at a time through
// node (query index % nodes) as coordinator.
template <class Cluster>
std::vector<std::vector<align::AlignmentHit>> query_each_donor(
    Cluster& mini) {
  std::vector<std::vector<align::AlignmentHit>> ranked;
  for (std::uint64_t q = 0; q < 8; ++q) {
    const auto window = mini.store.at(q).window(5, 100);
    QueryRequestPayload request;
    request.query.assign(window.begin(), window.end());
    mini.send(static_cast<net::NodeId>(q % mini.nodes.size()), kQueryRequest,
              100 + q, encode_payload(request));
    mini.settle();
    std::lock_guard lock(mini.inbox_mu);
    EXPECT_EQ(mini.client_inbox.size(), 1u) << "query " << q;
    if (mini.client_inbox.empty()) break;
    ranked.push_back(
        decode_payload<QueryResultPayload>(mini.client_inbox.back().payload)
            .hits);
    mini.client_inbox.clear();
  }
  return ranked;
}

template <class Cluster>
void expect_hostile_replies_rejected() {
  Cluster clean;
  clean.index_everything();
  const auto want = query_each_donor(clean);

  Cluster mini(/*with_hostile=*/true);
  mini.index_everything();
  const auto got = query_each_donor(mini);

  ASSERT_EQ(got.size(), want.size());
  std::size_t hits = 0;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
    hits += want[q].size();
    for (std::size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(got[q][i].subject_id, want[q][i].subject_id);
      EXPECT_EQ(got[q][i].alignment.hsp.score,
                want[q][i].alignment.hsp.score);
      EXPECT_EQ(got[q][i].alignment.hsp.s_begin,
                want[q][i].alignment.hsp.s_begin);
      EXPECT_EQ(got[q][i].alignment.cigar, want[q][i].alignment.cigar);
      EXPECT_EQ(got[q][i].evalue, want[q][i].evalue);
    }
  }
  EXPECT_GT(hits, 0u);

  std::map<std::string, std::size_t> rejected;
  std::uint64_t expected = 0;
  for (std::size_t id = 0; id < mini.nodes.size(); ++id) {
    for (const auto& [kind, n] : mini.hostile[id]->rejected) {
      rejected[kind] += n;
      expected += n;
    }
    EXPECT_EQ(mini.nodes[id]->pending_group_queries(), 0u) << "node " << id;
    EXPECT_EQ(mini.nodes[id]->pending_coordinator_queries(), 0u)
        << "node " << id;
  }
  EXPECT_EQ(mini.decode_errors(), expected);
  // Every kind of hostile reply reached live state at both roles.
  for (const char* kind : {"wrong sequence", "out-of-range token",
                           "duplicate fetch", "unissued token",
                           "duplicate fan-in reply"}) {
    for (const char* role : {" @group", " @coordinator"}) {
      EXPECT_GT(rejected[std::string(kind) + role], 0u) << kind << role;
    }
  }
}

TEST(StorageNode, DuplicateAndUnissuedRepliesAreRejected) {
  expect_hostile_replies_rejected<MiniCluster>();
}

// Same contract under wall-clock time, with every node searching and
// extending on its own dispatch thread while the hostile copies arrive
// (the TSan job runs this binary).
TEST(StorageNode, DuplicateAndUnissuedRepliesAreRejectedOnThreads) {
  expect_hostile_replies_rejected<BasicMiniCluster<net::ThreadTransport>>();
}

}  // namespace
}  // namespace mendel::core
