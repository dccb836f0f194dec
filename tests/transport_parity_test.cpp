// Transport parity: the query pipeline must produce identical results on
// the deterministic discrete-event simulator and on real threads. This is
// the strongest form of the "no hidden ordering assumptions" guarantee —
// every cross-node reduction must be commutative/totally ordered, or the
// two runtimes would disagree.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "src/mendel/client.h"
#include "src/mendel/indexer.h"
#include "src/mendel/node_host.h"
#include "src/mendel/protocol.h"
#include "src/mendel/storage_node.h"
#include "src/net/socket_transport.h"
#include "src/net/thread_transport.h"
#include "src/workload/generator.h"

namespace mendel {
namespace {

workload::DatabaseSpec spec() {
  workload::DatabaseSpec s;
  s.families = 4;
  s.members_per_family = 3;
  s.background_sequences = 6;
  s.min_length = 150;
  s.max_length = 350;
  s.seed = 77;
  return s;
}

// Runs one query over ThreadTransport with hand-wired nodes; returns the
// decoded result payload.
core::QueryResultPayload run_threaded(const seq::SequenceStore& store,
                                      const seq::Sequence& query,
                                      const core::QueryParams& params) {
  cluster::TopologyConfig topo_config;
  topo_config.num_groups = 3;
  topo_config.nodes_per_group = 2;
  cluster::Topology topology(topo_config);
  const auto& distance = score::default_distance(store.alphabet());

  core::IndexingOptions indexing;
  indexing.window_length = 8;
  indexing.sample_size = 256;
  core::Indexer indexer(&topology, &distance, indexing);
  const auto tree = indexer.build_prefix_tree(store, {.cutoff_depth = 4});
  topology.bind_prefixes(tree.leaf_prefixes());

  obs::MetricsRegistry registry;
  core::StorageNodeConfig config;
  config.topology = &topology;
  config.prefix_tree = &tree;
  config.distance = &distance;
  config.metrics = &registry;
  config.alphabet = store.alphabet();
  config.database_residues = store.total_residues();

  net::ThreadTransport transport;
  std::vector<std::unique_ptr<core::StorageNode>> nodes;
  for (net::NodeId id = 0; id < topology.total_nodes(); ++id) {
    nodes.push_back(std::make_unique<core::StorageNode>(id, config));
    transport.register_actor(id, nodes.back().get());
  }
  std::promise<core::QueryResultPayload> promise;
  std::atomic<bool> fulfilled{false};
  net::FunctionActor client([&](const net::Message& m, net::Context&) {
    if (m.type == core::kQueryResult && !fulfilled.exchange(true)) {
      promise.set_value(
          core::decode_payload<core::QueryResultPayload>(m.payload));
    }
  });
  transport.register_actor(net::kClientNode, &client);
  transport.start();
  indexer.index_store(store, tree, transport, net::kClientNode);

  core::QueryRequestPayload request;
  request.params = params;
  request.query.assign(query.codes().begin(), query.codes().end());
  net::Message message;
  message.from = net::kClientNode;
  message.to = 0;
  message.type = core::kQueryRequest;
  message.request_id = 1;
  message.payload = core::encode_payload(request);
  transport.send(std::move(message));

  auto future = promise.get_future();
  EXPECT_EQ(future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  auto result = future.get();
  transport.stop();
  return result;
}

TEST(TransportParity, SimAndThreadedProduceIdenticalHits) {
  const auto store = workload::generate_database(spec());
  const auto& donor = store.at(2);
  const auto region = donor.window(10, 120);
  const seq::Sequence query(store.alphabet(), "probe",
                            {region.begin(), region.end()});
  core::QueryParams params;  // defaults

  // Simulator side: same topology/options via the Client facade. Indexing
  // options must match the threaded wiring above.
  core::ClientOptions options;
  options.topology.num_groups = 3;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  core::Client client(options);
  client.index(store);
  const auto sim = client.query(query, params);

  const auto threaded = run_threaded(store, query, params);

  ASSERT_EQ(sim.hits.size(), threaded.hits.size());
  for (std::size_t i = 0; i < sim.hits.size(); ++i) {
    EXPECT_EQ(sim.hits[i].subject_id, threaded.hits[i].subject_id);
    EXPECT_EQ(sim.hits[i].alignment.hsp.score,
              threaded.hits[i].alignment.hsp.score);
    EXPECT_EQ(sim.hits[i].alignment.cigar, threaded.hits[i].alignment.cigar);
    EXPECT_DOUBLE_EQ(sim.hits[i].evalue, threaded.hits[i].evalue);
  }
}

core::ClientOptions parity_options(core::TransportMode mode) {
  core::ClientOptions options;
  options.topology.num_groups = 3;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  options.runtime.transport_mode = mode;
  return options;
}

std::vector<seq::Sequence> parity_queries(const seq::SequenceStore& store) {
  std::vector<seq::Sequence> queries;
  for (std::size_t donor : {2u, 5u, 9u, 2u}) {  // duplicate exercises cache
    const auto region = store.at(donor).window(5, 110);
    queries.emplace_back(store.alphabet(),
                         "probe" + std::to_string(queries.size()),
                         std::vector<seq::Code>{region.begin(), region.end()});
  }
  return queries;
}

void expect_same_hits(const core::QueryOutcome& a, const core::QueryOutcome& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].subject_id, b.hits[i].subject_id);
    EXPECT_EQ(a.hits[i].alignment.hsp.score, b.hits[i].alignment.hsp.score);
    EXPECT_EQ(a.hits[i].alignment.cigar, b.hits[i].alignment.cigar);
    EXPECT_DOUBLE_EQ(a.hits[i].evalue, b.hits[i].evalue);
  }
}

TEST(TransportParity, ConcurrentBatchMatchesSimBatch) {
  // The full concurrent pipeline: a threaded-mode Client admits a whole
  // batch (queries genuinely overlap across node threads, with the NN cache
  // active) and must produce exactly the ranked hit sets the deterministic
  // simulator produces.
  const auto store = workload::generate_database(spec());
  const auto queries = parity_queries(store);

  core::Client sim_client(parity_options(core::TransportMode::kSim));
  sim_client.index(store);
  const auto sim_outcomes = sim_client.query_batch(queries);

  auto threaded_options = parity_options(core::TransportMode::kThreaded);
  core::Client threaded_client(threaded_options);
  threaded_client.index(store);
  const auto threaded_outcomes = threaded_client.query_batch(queries);

  ASSERT_EQ(sim_outcomes.size(), threaded_outcomes.size());
  for (std::size_t i = 0; i < sim_outcomes.size(); ++i) {
    EXPECT_TRUE(sim_outcomes[i].completed);
    EXPECT_TRUE(threaded_outcomes[i].completed);
    expect_same_hits(sim_outcomes[i], threaded_outcomes[i]);
  }
  EXPECT_EQ(threaded_client.metrics().counter("net.handler_errors"), 0u);
}

TEST(TransportParity, ManyThreadsDrivingSubmitWaitAgreeWithSim) {
  // Multi-query admission from concurrent application threads: each thread
  // owns one submit/wait pair; results must still match the simulator
  // query-for-query.
  const auto store = workload::generate_database(spec());
  const auto queries = parity_queries(store);

  core::Client sim_client(parity_options(core::TransportMode::kSim));
  sim_client.index(store);
  std::vector<core::QueryOutcome> sim_outcomes;
  for (const auto& query : queries) {
    sim_outcomes.push_back(sim_client.query(query));
  }

  core::Client threaded_client(
      parity_options(core::TransportMode::kThreaded));
  threaded_client.index(store);
  std::vector<core::QueryOutcome> threaded_outcomes(queries.size());
  {
    std::vector<std::thread> drivers;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      drivers.emplace_back([&, i] {
        threaded_outcomes[i] = threaded_client.query(queries[i]);
      });
    }
    for (auto& driver : drivers) driver.join();
  }

  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(threaded_outcomes[i].completed);
    expect_same_hits(sim_outcomes[i], threaded_outcomes[i]);
  }
}

// DNA's 4-letter alphabet makes exact window-distance ties pervasive, so
// the n-NN boundary used to be resolved by vp-tree traversal order — which
// depends on insertion order and therefore on transport message timing
// (ROADMAP item 7: sim "7 9 6 7" vs threaded "6 9 6 6" hit counts). The
// metric's tie_key order resolves equidistant candidates by block
// identity on every tree shape; this pin holds the cross-transport
// guarantee for DNA params, which the protein-only suite above misses.
TEST(TransportParity, DnaBatchMatchesAcrossTransports) {
  auto dbspec = spec();
  dbspec.alphabet = seq::Alphabet::kDna;
  const auto store = workload::generate_database(dbspec);
  const auto queries = parity_queries(store);
  core::QueryParams params;
  params.matrix = "DNA";
  params.identity = 0.6;
  params.c_score = 0.4;
  params.gapped_trigger = 1.0;

  core::Client sim_client(parity_options(core::TransportMode::kSim));
  sim_client.index(store);
  const auto sim_outcomes = sim_client.query_batch(queries, params);

  auto threaded_options = parity_options(core::TransportMode::kThreaded);
  core::Client threaded_client(threaded_options);
  threaded_client.index(store);
  const auto threaded_outcomes = threaded_client.query_batch(queries, params);

  ASSERT_EQ(sim_outcomes.size(), threaded_outcomes.size());
  for (std::size_t i = 0; i < sim_outcomes.size(); ++i) {
    EXPECT_TRUE(sim_outcomes[i].completed);
    EXPECT_TRUE(threaded_outcomes[i].completed);
    ASSERT_FALSE(sim_outcomes[i].hits.empty()) << "query " << i;
    expect_same_hits(sim_outcomes[i], threaded_outcomes[i]);
  }
  EXPECT_EQ(threaded_client.metrics().counter("net.handler_errors"), 0u);
}

// In-process socket cluster: "daemon" transports hosting the storage
// nodes over Unix-domain sockets, wired exactly as mendel-node processes
// would be (separate SocketTransport + NodeHost per daemon, the client
// reaching them only through real sockets and the kNodeInit protocol).
// Daemon d hosts the node ids congruent to d, each under `settings`.
struct SocketCluster {
  std::vector<std::string> endpoints;
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<core::NodeHost>> hosts;
  std::vector<std::unique_ptr<net::SocketTransport>> transports;

  SocketCluster(const std::string& tag, std::size_t total_nodes,
                std::size_t daemons, const core::NodeSettings& settings = {}) {
    for (std::size_t id = 0; id < total_nodes; ++id) {
      endpoints.push_back("unix:" + testing::TempDir() + "mendel_parity_" +
                          std::to_string(::getpid()) + "_" + tag + "_" +
                          std::to_string(id) + ".sock");
    }
    for (std::size_t daemon = 0; daemon < daemons; ++daemon) {
      net::SocketOptions options;
      options.endpoints = endpoints;
      transports.push_back(
          std::make_unique<net::SocketTransport>(options));
      core::NodeHostOptions host_options;
      for (std::size_t id = daemon; id < total_nodes; id += daemons) {
        host_options.node_ids.push_back(static_cast<net::NodeId>(id));
      }
      host_options.node = settings;
      host_options.metrics = &registry;
      hosts.push_back(std::make_unique<core::NodeHost>(
          transports.back().get(), std::move(host_options)));
    }
    // Daemons start concurrently (like real processes): each start()
    // blocks until its dials land, and the peers only listen once their
    // own start() runs.
    std::vector<std::thread> starters;
    for (auto& transport : transports) {
      starters.emplace_back([&transport] { transport->start(); });
    }
    for (auto& starter : starters) starter.join();
  }
  ~SocketCluster() { stop(); }

  // Joins every daemon's threads, so the test thread may then read what
  // their handlers wrote.
  void stop() {
    for (auto& transport : transports) transport->stop();
  }
  core::StorageNode* node(net::NodeId id) {
    return hosts[id % hosts.size()]->node(id);
  }
};

// Expects `cluster`'s ranked hits for `queries` to equal a simulator
// client's at the default settings; `sim_metrics`, when given, receives
// the simulator client's metrics.
void expect_socket_matches_sim(SocketCluster& cluster,
                               const seq::SequenceStore& store,
                               const std::vector<seq::Sequence>& queries,
                               const core::QueryParams& params,
                               obs::MetricsSnapshot* sim_metrics = nullptr) {
  core::Client sim_client(parity_options(core::TransportMode::kSim));
  sim_client.index(store);
  const auto sim_outcomes = sim_client.query_batch(queries, params);
  if (sim_metrics != nullptr) *sim_metrics = sim_client.metrics();

  auto options = parity_options(core::TransportMode::kSocket);
  options.runtime.socket.endpoints = cluster.endpoints;
  core::Client socket_client(options);
  socket_client.index(store);
  const auto socket_outcomes = socket_client.query_batch(queries, params);

  ASSERT_EQ(sim_outcomes.size(), socket_outcomes.size());
  for (std::size_t i = 0; i < sim_outcomes.size(); ++i) {
    EXPECT_TRUE(sim_outcomes[i].completed);
    EXPECT_TRUE(socket_outcomes[i].completed);
    ASSERT_FALSE(sim_outcomes[i].hits.empty()) << "query " << i;
    expect_same_hits(sim_outcomes[i], socket_outcomes[i]);
  }
  EXPECT_EQ(socket_client.metrics().counter("net.handler_errors"), 0u);
  for (const auto& transport : cluster.transports) {
    EXPECT_EQ(transport->handler_errors().size(), 0u);
    EXPECT_EQ(transport->decode_errors(), 0u);
  }
}

void run_socket_parity(seq::Alphabet alphabet, const std::string& tag) {
  auto dbspec = spec();
  dbspec.alphabet = alphabet;
  const auto store = workload::generate_database(dbspec);
  core::QueryParams params;
  if (alphabet == seq::Alphabet::kDna) {
    params.matrix = "DNA";
    params.identity = 0.6;
    params.c_score = 0.4;
    params.gapped_trigger = 1.0;
  }
  SocketCluster cluster(tag, 6, 3);
  expect_socket_matches_sim(cluster, store, parity_queries(store), params);
}

// The tentpole guarantee: real sockets are just another transport — the
// ranked hits a multi-daemon socket cluster produces must be exactly the
// deterministic simulator's, for both alphabets.
TEST(TransportParity, SocketClusterMatchesSimProtein) {
  run_socket_parity(seq::Alphabet::kProtein, "prot");
}

TEST(TransportParity, SocketClusterMatchesSimDna) {
  run_socket_parity(seq::Alphabet::kDna, "dna");
}

// A node searches its NN-cache misses kSearchBatch at a time in one
// vp-tree walk, so which subqueries share a walk depends on the cache (it
// decides what misses) and on nothing else. Encoded ranked hits must be
// byte-identical with the cache off and at its default. One group hands
// each node all ~50 subqueries of a long query in one message (more than
// one batch), a repeated segment puts duplicate windows in one batch, and
// each query runs twice so the second pass mixes cache hits into the
// messages.
std::vector<std::vector<std::uint8_t>> hits_with_cache(
    seq::Alphabet alphabet, std::size_t nn_cache_capacity) {
  auto dbspec = spec();
  dbspec.alphabet = alphabet;
  dbspec.min_length = 400;
  dbspec.max_length = 900;
  const auto store = workload::generate_database(dbspec);
  auto options = parity_options(core::TransportMode::kSim);
  options.topology.num_groups = 1;
  options.runtime.node.nn_cache_capacity = nn_cache_capacity;
  core::Client client(options);
  client.index(store);

  core::QueryParams params;
  if (alphabet == seq::Alphabet::kDna) {
    params.matrix = "DNA";
    params.identity = 0.6;
    params.c_score = 0.4;
    params.gapped_trigger = 1.0;
  }
  std::vector<seq::Sequence> queries;
  for (std::size_t donor : {3u, 7u, 12u}) {
    const auto region = store.at(donor).window(0, 400);
    queries.emplace_back(store.alphabet(), "long",
                         std::vector<seq::Code>{region.begin(), region.end()});
  }
  const auto segment = store.at(5).window(40, 96);
  std::vector<seq::Code> twice(segment.begin(), segment.end());
  twice.insert(twice.end(), segment.begin(), segment.end());
  queries.emplace_back(store.alphabet(), "repeat", std::move(twice));
  std::vector<std::vector<std::uint8_t>> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& outcome : client.query_batch(queries, params)) {
      EXPECT_TRUE(outcome.completed);
      core::QueryResultPayload payload;
      payload.hits = outcome.hits;
      out.push_back(core::encode_payload(payload));
    }
  }
  return out;
}

TEST(TransportParity, RankedHitsDoNotDependOnSearchBatching) {
  const std::size_t default_cache = core::NodeSettings{}.nn_cache_capacity;
  for (const auto alphabet : {seq::Alphabet::kProtein, seq::Alphabet::kDna}) {
    const auto reference = hits_with_cache(alphabet, 0);
    std::size_t with_hits = 0;
    for (const auto& bytes : reference) {
      const auto payload =
          core::decode_payload<core::QueryResultPayload>(bytes);
      with_hits += payload.hits.empty() ? 0 : 1;
    }
    EXPECT_EQ(with_hits, reference.size()) << seq::name(alphabet);
    EXPECT_EQ(hits_with_cache(alphabet, default_cache), reference)
        << seq::name(alphabet);
  }
}

// Arena residency is a memory policy, not a results policy: a clamped
// resident budget (packed rows spilled through the block store) must
// reproduce the all-resident ranked hits exactly, on both transports and
// for both the packed (DNA) and unpacked (protein) row formats.
TEST(TransportParity, SpillForcedBudgetMatchesAllResident) {
  for (const auto alphabet : {seq::Alphabet::kDna, seq::Alphabet::kProtein}) {
    auto dbspec = spec();
    dbspec.alphabet = alphabet;
    const auto store = workload::generate_database(dbspec);
    const auto queries = parity_queries(store);
    core::QueryParams params;
    if (alphabet == seq::Alphabet::kDna) {
      params.matrix = "DNA";
      params.identity = 0.6;
      params.c_score = 0.4;
      params.gapped_trigger = 1.0;
    }

    for (const auto mode :
         {core::TransportMode::kSim, core::TransportMode::kThreaded}) {
      auto resident_options = parity_options(mode);
      core::Client resident_client(resident_options);
      resident_client.index(store);
      const auto resident = resident_client.query_batch(queries, params);

      auto spill_options = resident_options;
      spill_options.runtime.node.arena_resident_budget = 1;  // clamps to floor
      core::Client spill_client(spill_options);
      spill_client.index(store);
      const auto spilled = spill_client.query_batch(queries, params);

      ASSERT_EQ(resident.size(), spilled.size());
      for (std::size_t i = 0; i < resident.size(); ++i) {
        EXPECT_TRUE(spilled[i].completed);
        expect_same_hits(resident[i], spilled[i]);
      }
    }
  }
}

// Long homologous families plus short unrelated subjects, searched by
// top-2 queries cut from the long ones: a short subject cannot outscore
// a long query's strong hit, so the coordinator's pruning has real prey.
struct PruneCase {
  seq::SequenceStore store;
  std::vector<seq::Sequence> queries;
  core::QueryParams params;
};

PruneCase prune_case(seq::Alphabet alphabet) {
  auto long_spec = spec();
  long_spec.alphabet = alphabet;
  long_spec.families = 2;
  long_spec.background_sequences = 0;
  long_spec.min_length = 350;
  long_spec.max_length = 420;
  auto short_spec = long_spec;
  short_spec.families = 3;
  short_spec.members_per_family = 2;
  short_spec.background_sequences = 6;
  short_spec.min_length = 40;
  short_spec.max_length = 60;
  short_spec.seed = 78;
  PruneCase out{seq::SequenceStore(alphabet), {}, {}};
  for (const auto& s : workload::generate_database(long_spec)) {
    out.store.add(s);
  }
  for (const auto& s : workload::generate_database(short_spec)) {
    out.store.add(s);
  }
  for (std::size_t donor : {1u, 4u}) {
    const auto region = out.store.at(donor).window(5, 345);
    out.queries.emplace_back(
        alphabet, "probe" + std::to_string(out.queries.size()),
        std::vector<seq::Code>{region.begin(), region.end()});
  }
  out.params.gapped_trigger = 0.1;
  out.params.max_hits = 2;
  if (alphabet == seq::Alphabet::kDna) {
    out.params.matrix = "DNA";
    out.params.identity = 0.6;
    out.params.c_score = 0.4;
  }
  return out;
}

// Score-bounded pruning is a work policy, not a results policy: skipping
// bins whose score ceiling cannot crack the top-k must reproduce the
// unpruned ranked hits exactly, on both transports and both alphabets.
// The counter assertion keeps the equivalence check from passing
// vacuously.
TEST(TransportParity, PruningMatchesUnprunedExactly) {
  for (const auto alphabet : {seq::Alphabet::kDna, seq::Alphabet::kProtein}) {
    const auto [store, queries, params] = prune_case(alphabet);
    for (const auto mode :
         {core::TransportMode::kSim, core::TransportMode::kThreaded}) {
      auto options = parity_options(mode);
      core::Client pruned_client(options);
      pruned_client.index(store);
      const auto pruned = pruned_client.query_batch(queries, params);
      EXPECT_GT(pruned_client.metrics().counter("node.anchors_pruned"),
                0u);

      auto unpruned_options = options;
      unpruned_options.runtime.node.prune_extensions = false;
      core::Client unpruned_client(unpruned_options);
      unpruned_client.index(store);
      const auto unpruned = unpruned_client.query_batch(queries, params);
      EXPECT_EQ(unpruned_client.metrics().counter("node.anchors_pruned"),
                0u);
#ifdef MENDEL_CHECKED
      // The checked build's prune audit deliberately extends pruned bins
      // too (to compare against the full ranking), so the work saving is
      // invisible in the gapped counter there.
      EXPECT_EQ(unpruned_client.metrics().counter("node.gapped_extensions"),
                pruned_client.metrics().counter("node.gapped_extensions"));
#else
      EXPECT_GT(unpruned_client.metrics().counter("node.gapped_extensions"),
                pruned_client.metrics().counter("node.gapped_extensions"));
#endif

      ASSERT_EQ(pruned.size(), unpruned.size());
      for (std::size_t i = 0; i < pruned.size(); ++i) {
        EXPECT_TRUE(pruned[i].completed);
        ASSERT_FALSE(unpruned[i].hits.empty()) << "query " << i;
        expect_same_hits(pruned[i], unpruned[i]);
      }
    }
  }
}

// A NodeHost builds its nodes with its own NodeSettings, not the
// defaults: hosts with the NN cache and extension pruning off still give
// the simulator's ranked hits, and not one hosted node caches a seed list
// or prunes an anchor, although the simulator at the defaults does both.
TEST(TransportParity, SocketHostsApplyTheirNodeSettings) {
  core::NodeSettings settings;
  settings.nn_cache_capacity = 0;
  settings.prune_extensions = false;
  SocketCluster cluster("settings", 6, 3, settings);
  const auto [store, queries, params] = prune_case(seq::Alphabet::kProtein);
  obs::MetricsSnapshot sim;
  expect_socket_matches_sim(cluster, store, queries, params, &sim);
  EXPECT_GT(sim.counter("node.nn_cache_misses"), 0u);
  EXPECT_GT(sim.counter("node.anchors_pruned"), 0u);
  cluster.stop();
  std::uint64_t searches = 0;
  for (net::NodeId id = 0; id < cluster.endpoints.size(); ++id) {
    const core::StorageNode* node = cluster.node(id);
    ASSERT_NE(node, nullptr) << "node " << id;
    searches += node->counters().nn_searches;
    EXPECT_EQ(node->nn_cache_entries(), 0u) << "node " << id;
    EXPECT_EQ(node->counters().anchors_pruned, 0u) << "node " << id;
  }
  EXPECT_GT(searches, 0u);
}

// Schedule exploration: the simulator normally breaks delivery-time ties
// by injection order, so one run exercises exactly one message
// interleaving. A nonzero runtime.schedule_seed perturbs every delivery
// with a deterministic per-seed jitter, permuting near-tied fan-in
// arrivals (node-search results, group results, fetched ranges) without
// violating causality. The protocol's reductions must be insensitive to
// arrival order, so the ranked hits for every seed must be byte-for-byte
// the seed-0 hits. On failure the seed is printed: replay by setting
// runtime.schedule_seed to it in a standalone Client.
TEST(TransportParity, ScheduleSeedSweepLeavesRankedHitsInvariant) {
  constexpr std::uint64_t kSeeds = 32;
  for (const auto alphabet : {seq::Alphabet::kProtein, seq::Alphabet::kDna}) {
    auto dbspec = spec();
    dbspec.alphabet = alphabet;
    const auto store = workload::generate_database(dbspec);
    const auto queries = parity_queries(store);
    core::QueryParams params;
    if (alphabet == seq::Alphabet::kDna) {
      params.matrix = "DNA";
      params.identity = 0.6;
      params.c_score = 0.4;
      params.gapped_trigger = 1.0;
    }

    auto run_with_seed = [&](std::uint64_t seed) {
      auto options = parity_options(core::TransportMode::kSim);
      options.runtime.schedule_seed = seed;
      core::Client client(options);
      client.index(store);
      return client.query_batch(queries, params);
    };

    const auto baseline = run_with_seed(0);
    for (const auto& outcome : baseline) {
      ASSERT_TRUE(outcome.completed);
      ASSERT_FALSE(outcome.hits.empty());
    }

    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("replay with runtime.schedule_seed=" +
                   std::to_string(seed) + " alphabet=" +
                   (alphabet == seq::Alphabet::kDna ? "DNA" : "protein"));
      const auto outcomes = run_with_seed(seed);
      ASSERT_EQ(outcomes.size(), baseline.size());
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].completed);
        expect_same_hits(baseline[i], outcomes[i]);
      }
    }
  }
}

// The jitter itself must be a pure function of (seed, sequence number):
// the same seed replays the same schedule, different seeds genuinely
// differ (otherwise the sweep above would explore nothing).
TEST(TransportParity, ScheduleSeedIsDeterministicAndEffective) {
  const auto store = workload::generate_database(spec());
  const auto& donor = store.at(2);
  const auto region = donor.window(10, 120);
  const seq::Sequence query(store.alphabet(), "probe",
                            {region.begin(), region.end()});

  auto turnaround_with_seed = [&](std::uint64_t seed) {
    auto options = parity_options(core::TransportMode::kSim);
    options.runtime.schedule_seed = seed;
    core::Client client(options);
    client.index(store);
    return client.query(query).turnaround;
  };

  const double seed7_a = turnaround_with_seed(7);
  const double seed7_b = turnaround_with_seed(7);
  EXPECT_DOUBLE_EQ(seed7_a, seed7_b);  // replayable

  // Jitter shifts delivery times, so some seed in a small pool must move
  // the virtual-time turnaround relative to the unjittered schedule.
  const double unjittered = turnaround_with_seed(0);
  bool any_differs = false;
  for (std::uint64_t seed = 1; seed <= 4 && !any_differs; ++seed) {
    any_differs = turnaround_with_seed(seed) != unjittered;
  }
  EXPECT_TRUE(any_differs);
}

TEST(TransportParity, RepeatedThreadedRunsAgree) {
  const auto store = workload::generate_database(spec());
  const auto& donor = store.at(5);
  const auto region = donor.window(0, 100);
  const seq::Sequence query(store.alphabet(), "probe",
                            {region.begin(), region.end()});
  const auto first = run_threaded(store, query, {});
  const auto second = run_threaded(store, query, {});
  ASSERT_EQ(first.hits.size(), second.hits.size());
  for (std::size_t i = 0; i < first.hits.size(); ++i) {
    EXPECT_EQ(first.hits[i].subject_id, second.hits[i].subject_id);
    EXPECT_EQ(first.hits[i].alignment.hsp.score,
              second.hits[i].alignment.hsp.score);
  }
}

}  // namespace
}  // namespace mendel
