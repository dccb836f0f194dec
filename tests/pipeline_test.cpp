// System-level tests of the full Mendel pipeline beyond the basic
// integration suite: persistence, fault tolerance with replication,
// symmetric entry points, DNA mode, and the ThreadTransport twin runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <limits>

#include "src/mendel/client.h"
#include "src/mendel/indexer.h"
#include "src/mendel/protocol.h"
#include "src/mendel/storage_node.h"
#include "src/net/thread_transport.h"
#include "src/workload/generator.h"

namespace mendel {
namespace {

core::ClientOptions cluster_options(std::uint32_t groups = 4,
                                    std::uint32_t per_group = 3) {
  core::ClientOptions options;
  options.topology.num_groups = groups;
  options.topology.nodes_per_group = per_group;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 512;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  return options;
}

workload::DatabaseSpec database_spec() {
  workload::DatabaseSpec spec;
  spec.families = 6;
  spec.members_per_family = 4;
  spec.background_sequences = 10;
  spec.min_length = 150;
  spec.max_length = 400;
  spec.seed = 42;
  return spec;
}

seq::Sequence probe_of(const seq::SequenceStore& store, seq::SequenceId id,
                       std::size_t offset, std::size_t length) {
  const auto window = store.at(id).window(offset, length);
  return seq::Sequence(store.alphabet(), "probe",
                       {window.begin(), window.end()});
}

bool hits_contain(const std::vector<align::AlignmentHit>& hits,
                  seq::SequenceId id) {
  for (const auto& hit : hits) {
    if (hit.subject_id == id) return true;
  }
  return false;
}

// ---------- repeated queries / symmetric entry ----------

TEST(Pipeline, RepeatedQueriesAreConsistentAcrossEntryPoints) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  const auto query = probe_of(store, 5, 20, 120);

  // Each query rotates to a different system entry point (symmetric
  // architecture, paper §V-B: "any node ... generates identical results").
  const auto first = client.query(query);
  for (int i = 0; i < 4; ++i) {
    const auto again = client.query(query);
    ASSERT_EQ(again.hits.size(), first.hits.size());
    for (std::size_t h = 0; h < first.hits.size(); ++h) {
      EXPECT_EQ(again.hits[h].subject_id, first.hits[h].subject_id);
      EXPECT_EQ(again.hits[h].alignment.hsp.score,
                first.hits[h].alignment.hsp.score);
    }
  }
}

TEST(Pipeline, ManyDifferentQueriesNoCrosstalk) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  // Interleave queries against different donors; pending state of one
  // query must never leak into another.
  for (seq::SequenceId donor : {0u, 7u, 13u, 21u, 30u}) {
    if (store.at(donor).size() < 120) continue;
    const auto outcome = client.query(probe_of(store, donor, 0, 120));
    EXPECT_TRUE(hits_contain(outcome.hits, donor)) << "donor " << donor;
  }
}

TEST(Pipeline, TurnaroundMonotonicVirtualTime) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  const auto query = probe_of(store, 4, 0, 100);
  for (int i = 0; i < 3; ++i) {
    const auto outcome = client.query(query);
    EXPECT_GT(outcome.turnaround, 0.0);
    EXPECT_LT(outcome.turnaround, 10.0);  // sanity bound, virtual seconds
  }
}

// ---------- DNA end-to-end ----------

TEST(Pipeline, DnaDatabaseEndToEnd) {
  workload::DatabaseSpec spec = database_spec();
  spec.alphabet = seq::Alphabet::kDna;
  spec.families = 4;
  spec.min_length = 300;
  spec.max_length = 600;
  const auto store = workload::generate_database(spec);

  auto options = cluster_options();
  options.indexing.window_length = 12;  // DNA windows are longer
  core::Client client(options);
  client.index(store);

  core::QueryParams params;
  params.matrix = "DNA";
  params.identity = 0.6;
  params.c_score = 0.4;
  // S is matrix-relative: a perfect DNA column scores +2, so the protein
  // default (2.5) would reject even exact matches.
  params.gapped_trigger = 1.0;
  const auto query = probe_of(store, 2, 50, 200);
  const auto outcome = client.query(query, params);
  ASSERT_FALSE(outcome.hits.empty());
  EXPECT_TRUE(hits_contain(outcome.hits, 2));
  EXPECT_GT(outcome.hits.front().alignment.percent_identity(), 0.95);
}

// ---------- vp-tree shape ----------

// Encoded ranked hits of one query set, after the initial build and after
// each of three add_sequences rounds, on a cluster whose nodes use the
// given leaf size. Every node's audit must stay clean throughout.
std::vector<std::vector<std::uint8_t>> ranked_hits_per_round(
    seq::Alphabet alphabet, std::size_t bucket_capacity) {
  workload::DatabaseSpec spec = database_spec();
  spec.alphabet = alphabet;
  const auto store = workload::generate_database(spec);
  auto options = cluster_options();
  options.bucket_capacity = bucket_capacity;
  core::Client client(options);
  client.index(store);

  core::QueryParams params;
  if (alphabet == seq::Alphabet::kDna) {
    params.matrix = "DNA";
    params.identity = 0.6;
    params.gapped_trigger = 1.0;
  }
  std::vector<seq::Sequence> queries;
  for (seq::SequenceId id : {1u, 9u, 22u, 30u}) {
    queries.push_back(probe_of(store, id, 20, 120));
  }
  std::vector<std::vector<std::uint8_t>> rounds;
  for (std::uint64_t round = 0;; ++round) {
    for (net::NodeId id = 0; id < client.node_count(); ++id) {
      const auto violations = client.node(id).audit();
      EXPECT_TRUE(violations.empty())
          << "leaf size " << bucket_capacity << " round " << round << ": "
          << violations.front();
    }
    for (const auto& query : queries) {
      core::QueryResultPayload payload;
      payload.hits = client.query(query, params).hits;
      rounds.push_back(core::encode_payload(payload));
    }
    if (round == 3) break;
    workload::DatabaseSpec extra_spec = spec;
    extra_spec.families = 1;
    extra_spec.members_per_family = 3;
    extra_spec.background_sequences = 2;
    extra_spec.seed = 1000 + round;
    const auto extra = workload::generate_database(extra_spec);
    client.add_sequences(extra);
    queries.push_back(probe_of(extra, 0, 10, 120));
  }
  return rounds;
}

// n-NN ties break on block identity (BlockRefMetric::tie_key), so the
// hits must not depend on the vp-tree's shape: leaf sizes from 4 (deep
// trees) to 1024 (one leaf per node) give byte-identical results.
TEST(Pipeline, RankedHitsDoNotDependOnLeafSize) {
  for (const auto alphabet : {seq::Alphabet::kProtein, seq::Alphabet::kDna}) {
    const auto reference = ranked_hits_per_round(alphabet, 32);
    std::size_t with_hits = 0;
    for (const auto& bytes : reference) {
      const auto payload =
          core::decode_payload<core::QueryResultPayload>(bytes);
      with_hits += payload.hits.empty() ? 0 : 1;
    }
    EXPECT_EQ(with_hits, reference.size()) << seq::name(alphabet);
    for (const std::size_t leaf : {4UL, 256UL, 1024UL}) {
      EXPECT_EQ(ranked_hits_per_round(alphabet, leaf), reference)
          << seq::name(alphabet) << " leaf size " << leaf;
    }
  }
}

// ---------- request-supplied extension geometry ----------

// `band` and `extension_margin` arrive in any peer's request. Values past
// every sequence, up to UINT32_MAX, must neither wrap the fetch windows nor
// size the DP on their own: the windows clamp to the sequence and the band
// to the DP rectangle, so the hits equal those of a 10,000 band and margin
// on a database of 150-400 residue sequences.
TEST(Pipeline, HugeBandAndMarginGiveTheHitsOfCoveringOnes) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  constexpr std::uint32_t kHuge = std::numeric_limits<std::uint32_t>::max();
  core::QueryParams covering;
  covering.band = 10000;
  covering.extension_margin = 10000;
  const auto ranked = [&](const seq::Sequence& query,
                          const core::QueryParams& params) {
    core::QueryResultPayload payload;
    payload.hits = client.query(query, params).hits;
    return core::encode_payload(payload);
  };
  for (const auto& query :
       {probe_of(store, 5, 20, 120), probe_of(store, 13, 0, 140)}) {
    const auto want = ranked(query, covering);
    ASSERT_FALSE(client.query(query, covering).hits.empty());
    core::QueryParams huge_band = covering;
    huge_band.band = kHuge;
    EXPECT_EQ(ranked(query, huge_band), want);
    core::QueryParams huge_margin = covering;
    huge_margin.extension_margin = kHuge;
    EXPECT_EQ(ranked(query, huge_margin), want);
    core::QueryParams both = huge_band;
    both.extension_margin = kHuge;
    EXPECT_EQ(ranked(query, both), want);
  }
}

// ---------- persistence ----------

TEST(Pipeline, SaveAndLoadIndexReproducesResults) {
  const auto store = workload::generate_database(database_spec());
  const std::string path = "/tmp/mendel_index_test.bin";

  core::Client original(cluster_options());
  original.index(store);
  const auto query = probe_of(store, 9, 10, 130);
  const auto before = original.query(query);
  original.save_index(path);

  core::Client restored(cluster_options());
  restored.load_index(path);
  EXPECT_TRUE(restored.indexed());
  const auto after = restored.query(query);

  ASSERT_EQ(after.hits.size(), before.hits.size());
  for (std::size_t i = 0; i < before.hits.size(); ++i) {
    EXPECT_EQ(after.hits[i].subject_id, before.hits[i].subject_id);
    EXPECT_EQ(after.hits[i].alignment.hsp.score,
              before.hits[i].alignment.hsp.score);
    EXPECT_DOUBLE_EQ(after.hits[i].evalue, before.hits[i].evalue);
  }
  // Block placement survives the round trip exactly.
  EXPECT_EQ(restored.block_counts(), original.block_counts());
  std::remove(path.c_str());
}

TEST(Pipeline, LoadIndexAdoptsSnapshotTopology) {
  const auto store = workload::generate_database(database_spec());
  const std::string path = "/tmp/mendel_index_adopt.bin";
  core::Client original(cluster_options(4, 3));
  original.index(store);
  original.save_index(path);

  // The restoring client was configured for a different shape; the
  // snapshot's 4x3 topology wins (an index is only valid on the cluster
  // shape it was built for).
  core::Client restored(cluster_options(2, 3));
  restored.load_index(path);
  EXPECT_EQ(restored.topology().num_groups(), 4u);
  EXPECT_EQ(restored.topology().nodes_per_group(), 3u);
  const auto outcome = restored.query(probe_of(store, 2, 0, 120));
  EXPECT_TRUE(hits_contain(outcome.hits, 2));
  std::remove(path.c_str());
}

TEST(Pipeline, IncrementalAddSequencesFindsNewData) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);

  // A brand-new family arrives after the initial build.
  workload::DatabaseSpec extra_spec;
  extra_spec.families = 1;
  extra_spec.members_per_family = 3;
  extra_spec.background_sequences = 0;
  extra_spec.min_length = 200;
  extra_spec.max_length = 200;
  extra_spec.seed = 777;
  const auto extra = workload::generate_database(extra_spec);
  const auto base = client.add_sequences(extra);
  EXPECT_EQ(base, store.size());

  // A probe cut from the new ancestor must resolve to its cluster-wide id.
  const auto outcome = client.query(probe_of(extra, 0, 10, 150));
  ASSERT_FALSE(outcome.hits.empty());
  EXPECT_TRUE(hits_contain(outcome.hits, static_cast<seq::SequenceId>(base)));
  // Old data is still fully queryable.
  const auto old_outcome = client.query(probe_of(store, 3, 10, 120));
  EXPECT_TRUE(hits_contain(old_outcome.hits, 3));
}

TEST(Pipeline, AddNodeMigratesBlocksAndPreservesResults) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  const auto query = probe_of(store, 5, 20, 120);
  const auto before = client.query(query);
  ASSERT_TRUE(hits_contain(before.hits, 5));
  const auto counts_before = client.block_counts();
  std::uint64_t total_before = 0;
  for (auto c : counts_before) total_before += c;

  // Grow group 1 by one node; the rebalance must move ~1/(n+1) of that
  // group's blocks (plus a slice of the sequence repository) onto it.
  const auto new_id = client.add_node(1);
  EXPECT_EQ(new_id, counts_before.size());
  const auto counts_after = client.block_counts();
  ASSERT_EQ(counts_after.size(), counts_before.size() + 1);
  EXPECT_GT(counts_after[new_id], 0u) << "newcomer received no blocks";
  std::uint64_t total_after = 0;
  for (auto c : counts_after) total_after += c;
  EXPECT_EQ(total_after, total_before) << "blocks lost or duplicated";
  // Only group 1's nodes shed blocks.
  for (net::NodeId id = 0; id < counts_before.size(); ++id) {
    if (client.topology().address(id).group == 1) {
      EXPECT_LE(counts_after[id], counts_before[id]);
    }
  }

  // Queries produce the same answers on the rebalanced cluster.
  const auto after = client.query(query);
  ASSERT_EQ(after.hits.size(), before.hits.size());
  for (std::size_t i = 0; i < before.hits.size(); ++i) {
    EXPECT_EQ(after.hits[i].subject_id, before.hits[i].subject_id);
    EXPECT_EQ(after.hits[i].alignment.hsp.score,
              before.hits[i].alignment.hsp.score);
  }
}

TEST(Pipeline, AddNodeThenSaveLoadRoundTrip) {
  const auto store = workload::generate_database(database_spec());
  const std::string path = "/tmp/mendel_index_grown.bin";
  core::Client original(cluster_options());
  original.index(store);
  original.add_node(0);
  original.add_node(2);
  const auto query = probe_of(store, 7, 0, 120);
  const auto before = original.query(query);
  original.save_index(path);

  core::Client restored(cluster_options());
  restored.load_index(path);
  EXPECT_EQ(restored.topology().total_nodes(),
            original.topology().total_nodes());
  EXPECT_EQ(restored.block_counts(), original.block_counts());
  const auto after = restored.query(query);
  ASSERT_EQ(after.hits.size(), before.hits.size());
  for (std::size_t i = 0; i < before.hits.size(); ++i) {
    EXPECT_EQ(after.hits[i].subject_id, before.hits[i].subject_id);
  }
  std::remove(path.c_str());
}

TEST(Pipeline, RepeatedAddNodeKeepsClusterConsistent) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  std::uint64_t expected_total = 0;
  for (auto c : client.block_counts()) expected_total += c;
  for (std::uint32_t g = 0; g < 3; ++g) {
    client.add_node(g % client.topology().num_groups());
    std::uint64_t total = 0;
    for (auto c : client.block_counts()) total += c;
    EXPECT_EQ(total, expected_total) << "after growth round " << g;
  }
  const auto outcome = client.query(probe_of(store, 11, 0, 120));
  EXPECT_TRUE(hits_contain(outcome.hits, 11));
}

TEST(Pipeline, AddSequencesRequiresIndexedClient) {
  core::Client client(cluster_options());
  const auto extra = workload::generate_database(database_spec());
  EXPECT_THROW(client.add_sequences(extra), InvalidArgument);
}

TEST(Pipeline, LoadIndexMissingFileThrows) {
  core::Client client(cluster_options());
  EXPECT_THROW(client.load_index("/nonexistent/index.bin"), IoError);
}

// ---------- fault tolerance (paper future work, implemented) ----------

TEST(Pipeline, QuerySurvivesNodeFailureWithReplication) {
  auto options = cluster_options();
  options.topology.replication = 2;           // block replicas in-group
  options.topology.sequence_replication = 2;  // repository replicas
  const auto store = workload::generate_database(database_spec());
  core::Client client(options);
  client.index(store);

  const auto query = probe_of(store, 3, 10, 120);
  const auto healthy = client.query(query);
  ASSERT_TRUE(hits_contain(healthy.hits, 3));

  // Fail one node; replicas must keep the donor reachable.
  client.fail_node(4);
  const auto degraded = client.query(query);
  EXPECT_TRUE(hits_contain(degraded.hits, 3));

  // Heal and verify full service resumes.
  client.heal_node(4);
  const auto recovered = client.query(query);
  EXPECT_TRUE(hits_contain(recovered.hits, 3));
}

TEST(Pipeline, WithoutReplicationFailureDegradesButAnswers) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  client.fail_node(0);
  client.fail_node(5);
  // Queries still complete (no hangs, no exceptions) even if some hits are
  // unreachable.
  const auto outcome = client.query(probe_of(store, 12, 0, 120));
  SUCCEED();
  (void)outcome;
}

TEST(Pipeline, SilentNodeFailureYieldsIncompleteOutcomeAndRecovers) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);

  // Drop node 2's traffic WITHOUT updating membership: fan-ins that await
  // it can never complete, which is the stall the cancel protocol handles.
  client.fault_injector().fail_node(2);
  const auto stalled = client.query(probe_of(store, 3, 10, 120));
  EXPECT_FALSE(stalled.completed);
  EXPECT_TRUE(stalled.hits.empty());

  // After healing, subsequent queries work and no stale pending state from
  // the aborted query interferes.
  client.fault_injector().heal_node(2);
  const auto recovered = client.query(probe_of(store, 3, 10, 120));
  EXPECT_TRUE(recovered.completed);
  EXPECT_TRUE(hits_contain(recovered.hits, 3));
}

// ---------- counters / telemetry ----------

TEST(Pipeline, CountersReflectWork) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  const auto report = client.index(store);
  EXPECT_EQ(report.sequences, store.size());

  const auto counters_before = client.metrics();
  EXPECT_EQ(counters_before.counter("node.blocks_inserted"), report.blocks);
  // Sequence replication 1: every sequence stored exactly once.
  EXPECT_EQ(counters_before.counter("node.sequences_stored"), store.size());

  client.query(probe_of(store, 1, 0, 100));
  const auto counters_after = client.metrics();
  EXPECT_EQ(counters_after.counter("node.queries_coordinated"), 1u);
  EXPECT_GT(counters_after.counter("node.group_queries"), 0u);
  EXPECT_GT(counters_after.counter("node.nn_searches"), 0u);
}

TEST(Pipeline, BlockCountsSumToReport) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  const auto report = client.index(store);
  std::uint64_t total = 0;
  for (auto c : client.block_counts()) total += c;
  EXPECT_EQ(total, report.blocks);
}

// ---------- degenerate queries ----------

TEST(Pipeline, QueryShorterThanBlockIsEmptyNotCrash) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  const auto tiny =
      seq::Sequence::from_string(seq::Alphabet::kProtein, "tiny", "MKV");
  const auto outcome = client.query(tiny);
  EXPECT_TRUE(outcome.hits.empty());
}

TEST(Pipeline, AlphabetMismatchRejected) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  const auto dna =
      seq::Sequence::from_string(seq::Alphabet::kDna, "d", "ACGTACGTACGT");
  EXPECT_THROW(client.query(dna), InvalidArgument);
}

TEST(Pipeline, QueryBeforeIndexRejected) {
  core::Client client(cluster_options());
  const auto q =
      seq::Sequence::from_string(seq::Alphabet::kProtein, "q", "MKVLAWHH");
  EXPECT_THROW(client.query(q), InvalidArgument);
}

// ---------- ThreadTransport twin runtime ----------

// Runs the identical StorageNode code under real threads: index a store,
// issue one query, and check the answer matches the donor. This pins the
// protocol's freedom from single-threaded-scheduler assumptions.
TEST(Pipeline, ThreadTransportEndToEnd) {
  workload::DatabaseSpec spec = database_spec();
  spec.families = 3;
  spec.background_sequences = 5;
  const auto store = workload::generate_database(spec);

  cluster::TopologyConfig topo_config;
  topo_config.num_groups = 3;
  topo_config.nodes_per_group = 2;
  cluster::Topology topology(topo_config);
  const auto distance = score::default_distance(store.alphabet());

  core::IndexingOptions indexing;
  indexing.window_length = 8;
  indexing.sample_size = 256;
  core::Indexer indexer(&topology, &distance, indexing);
  const auto prefix_tree =
      indexer.build_prefix_tree(store, {.cutoff_depth = 4});
  topology.bind_prefixes(prefix_tree.leaf_prefixes());

  obs::MetricsRegistry registry;
  core::StorageNodeConfig node_config;
  node_config.topology = &topology;
  node_config.prefix_tree = &prefix_tree;
  node_config.distance = &distance;
  node_config.metrics = &registry;
  node_config.alphabet = store.alphabet();
  node_config.database_residues = store.total_residues();

  net::ThreadTransport transport;
  std::vector<std::unique_ptr<core::StorageNode>> nodes;
  for (net::NodeId id = 0; id < topology.total_nodes(); ++id) {
    nodes.push_back(std::make_unique<core::StorageNode>(id, node_config));
    transport.register_actor(id, nodes.back().get());
  }
  std::promise<core::QueryResultPayload> result_promise;
  std::atomic<bool> fulfilled{false};
  net::FunctionActor client([&](const net::Message& m, net::Context&) {
    if (m.type == core::kQueryResult && !fulfilled.exchange(true)) {
      result_promise.set_value(
          core::decode_payload<core::QueryResultPayload>(m.payload));
    }
  });
  transport.register_actor(net::kClientNode, &client);
  transport.start();

  // Index, then query. Mailboxes are FIFO, so every node sees its inserts
  // before any search for them arrives (searches are only generated after
  // the query request, which is sent after all inserts).
  indexer.index_store(store, prefix_tree, transport, net::kClientNode);

  const auto query = probe_of(store, 1, 0, 120);
  core::QueryRequestPayload request;
  request.query.assign(query.codes().begin(), query.codes().end());
  net::Message message;
  message.from = net::kClientNode;
  message.to = 0;
  message.type = core::kQueryRequest;
  message.request_id = 1;
  message.payload = core::encode_payload(request);
  transport.send(std::move(message));

  auto future = result_promise.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "query did not complete under ThreadTransport";
  const auto result = future.get();
  EXPECT_TRUE(hits_contain(result.hits, 1));
  transport.stop();
}

}  // namespace
}  // namespace mendel
