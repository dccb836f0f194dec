// Concurrent query pipeline tests: multi-query admission (submit/wait and
// query_batch), the node-local subquery NN cache (counters, correctness,
// invalidation), and the stall -> cancel -> heal -> retry protocol's no-leak
// guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/mendel/client.h"
#include "src/mendel/storage_node.h"
#include "src/workload/generator.h"

namespace mendel {
namespace {

core::ClientOptions cluster_options() {
  core::ClientOptions options;
  options.topology.num_groups = 3;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  return options;
}

workload::DatabaseSpec database_spec() {
  workload::DatabaseSpec spec;
  spec.families = 4;
  spec.members_per_family = 3;
  spec.background_sequences = 6;
  spec.min_length = 150;
  spec.max_length = 350;
  spec.seed = 1234;
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

void expect_same_hits(const std::vector<align::AlignmentHit>& a,
                      const std::vector<align::AlignmentHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].subject_id, b[i].subject_id);
    EXPECT_EQ(a[i].alignment.hsp.score, b[i].alignment.hsp.score);
    EXPECT_EQ(a[i].alignment.cigar, b[i].alignment.cigar);
    EXPECT_DOUBLE_EQ(a[i].evalue, b[i].evalue);
  }
}

std::size_t total_cache_entries(core::Client& client) {
  std::size_t total = 0;
  for (net::NodeId id = 0; id < client.topology().total_nodes(); ++id) {
    total += client.node(id).nn_cache_entries();
  }
  return total;
}

void expect_no_leaked_pending(core::Client& client) {
  for (net::NodeId id = 0; id < client.topology().total_nodes(); ++id) {
    EXPECT_EQ(client.node(id).pending_group_queries(), 0u)
        << "group pending leaked on node " << id;
    EXPECT_EQ(client.node(id).pending_coordinator_queries(), 0u)
        << "coordinator pending leaked on node " << id;
  }
}

// ---------- NN cache ----------

TEST(NnCache, RepeatedQueryHitsTheCache) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  const auto query = probe_of(store, 2, 10, 120);

  ASSERT_FALSE(client.query(query).hits.empty());
  const auto first = client.metrics();
  EXPECT_GT(first.counter("node.nn_cache_misses"), 0u);
  EXPECT_GT(total_cache_entries(client), 0u);
  // Hits + misses never exceed searches (empty-tree nodes skip both).
  EXPECT_LE(first.counter("node.nn_cache_hits") +
                first.counter("node.nn_cache_misses"),
            first.counter("node.nn_searches"));

  // The identical query rotates to a different entry node, but every group
  // member sees the same (window, params) subqueries: all cache hits, no
  // new misses.
  ASSERT_FALSE(client.query(query).hits.empty());
  const auto second = client.metrics();
  EXPECT_EQ(second.counter("node.nn_cache_misses"),
            first.counter("node.nn_cache_misses"));
  EXPECT_EQ(second.counter("node.nn_cache_hits") -
                first.counter("node.nn_cache_hits"),
            first.counter("node.nn_cache_misses"));
}

TEST(NnCache, CachedSeedsProduceIdenticalHits) {
  const auto store = workload::generate_database(database_spec());
  const auto query = probe_of(store, 5, 0, 110);

  // Cache-off client: every query runs fresh vp-tree searches.
  auto cold_options = cluster_options();
  cold_options.runtime.node.nn_cache_capacity = 0;
  core::Client cold(cold_options);
  cold.index(store);
  const auto fresh = cold.query(query);
  EXPECT_EQ(cold.metrics().counter("node.nn_cache_hits"), 0u);
  EXPECT_EQ(cold.metrics().counter("node.nn_cache_misses"), 0u);
  EXPECT_EQ(total_cache_entries(cold), 0u);

  // Warm client: second run is served from the cache and must be
  // hit-for-hit identical to the uncached result.
  core::Client warm(cluster_options());
  warm.index(store);
  warm.query(query);
  const auto cached = warm.query(query);
  EXPECT_GT(warm.metrics().counter("node.nn_cache_hits"), 0u);
  expect_same_hits(fresh.hits, cached.hits);
}

TEST(NnCache, InvalidatedByAddSequencesSoNewDataIsFound) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);

  // Warm the cache with the probe we will re-run after the update.
  workload::DatabaseSpec extra_spec;
  extra_spec.families = 1;
  extra_spec.members_per_family = 2;
  extra_spec.background_sequences = 0;
  extra_spec.min_length = 200;
  extra_spec.max_length = 200;
  extra_spec.seed = 991;
  const auto extra = workload::generate_database(extra_spec);
  const auto probe = probe_of(extra, 0, 10, 150);
  const auto before = client.query(probe);

  const auto base = client.add_sequences(extra);
  ASSERT_FALSE(hits_contain(before.hits, static_cast<seq::SequenceId>(base)));

  // Stale cached seed lists would omit the new family entirely; the
  // invalidation on insert makes the re-run see it.
  const auto after = client.query(probe);
  EXPECT_TRUE(hits_contain(after.hits, static_cast<seq::SequenceId>(base)));
}

TEST(NnCache, InvalidatedByRebalance) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  const auto query = probe_of(store, 3, 5, 120);
  const auto before = client.query(query);
  ASSERT_GT(total_cache_entries(client), 0u);

  // Scale-out runs the rebalance protocol on every pre-existing node; each
  // drops its cached seed lists (block ownership moved under them).
  client.add_node(0);
  EXPECT_EQ(total_cache_entries(client), 0u);

  // Results over the rebalanced (and freshly re-cached) cluster agree.
  const auto after = client.query(query);
  expect_same_hits(before.hits, after.hits);
  const auto again = client.query(query);
  expect_same_hits(before.hits, again.hits);
}

TEST(NnCache, CapacityBoundsEntries) {
  auto options = cluster_options();
  options.runtime.node.nn_cache_capacity = 4;
  const auto store = workload::generate_database(database_spec());
  core::Client client(options);
  client.index(store);
  for (seq::SequenceId donor : {0u, 4u, 8u, 12u}) {
    client.query(probe_of(store, donor, 0, 100));
  }
  for (net::NodeId id = 0; id < client.topology().total_nodes(); ++id) {
    // Wholesale eviction at capacity: a node may briefly exceed the cap by
    // the in-flight batch but never unboundedly.
    EXPECT_LE(client.node(id).nn_cache_entries(),
              options.runtime.node.nn_cache_capacity + 64);
  }
}

// ---------- batched admission ----------

TEST(ConcurrentQuery, BatchedSubmitRedeemsOutOfOrder) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);

  std::vector<seq::Sequence> queries;
  std::vector<seq::SequenceId> donors = {1, 4, 9};
  for (seq::SequenceId donor : donors) {
    queries.push_back(probe_of(store, donor, 0, 120));
  }

  // Admit all, then redeem tickets in reverse: the per-query_id reply
  // table must hold every result until its ticket is cashed.
  std::vector<core::QueryTicket> tickets;
  for (const auto& query : queries) tickets.push_back(client.submit(query));
  std::vector<core::QueryOutcome> outcomes(tickets.size());
  for (std::size_t i = tickets.size(); i-- > 0;) {
    outcomes[i] = client.wait(tickets[i]);
  }
  for (std::size_t i = 0; i < donors.size(); ++i) {
    EXPECT_TRUE(outcomes[i].completed);
    EXPECT_TRUE(hits_contain(outcomes[i].hits, donors[i])) << "donor "
                                                           << donors[i];
  }
  expect_no_leaked_pending(client);
}

TEST(ConcurrentQuery, QueryBatchMatchesSerialQueries) {
  const auto store = workload::generate_database(database_spec());
  std::vector<seq::Sequence> queries;
  for (seq::SequenceId donor : {2u, 6u, 10u}) {
    queries.push_back(probe_of(store, donor, 10, 110));
  }

  core::Client serial(cluster_options());
  serial.index(store);
  std::vector<core::QueryOutcome> one_by_one;
  for (const auto& query : queries) one_by_one.push_back(serial.query(query));

  core::Client batched(cluster_options());
  batched.index(store);
  const auto outcomes = batched.query_batch(queries);

  ASSERT_EQ(outcomes.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same_hits(one_by_one[i].hits, outcomes[i].hits);
  }
}

// ---------- stall -> cancel -> heal -> retry ----------

TEST(ConcurrentQuery, StallHealRetryLeavesNoLeakedPending) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  const auto query = probe_of(store, 3, 10, 120);
  const auto healthy = client.query(query);
  ASSERT_TRUE(healthy.completed);
  expect_no_leaked_pending(client);

  // Silent failure: drop node 2's traffic without updating membership, so
  // fan-ins that await it stall and the cancel protocol kicks in.
  net::FaultInjector& faults = client.fault_injector();
  faults.fail_node(2);
  const auto dropped_before_cancel = faults.dropped_messages();
  const auto stalled = client.query(query);
  EXPECT_FALSE(stalled.completed);
  EXPECT_TRUE(stalled.hits.empty());
  // The cancel broadcast skipped the node the transport knows is down
  // (deferred instead of dropped): the stalled query's own traffic to node
  // 2 was dropped, but no cancel was.
  const auto dropped_after_cancel = faults.dropped_messages();

  // Healing flushes the deferred cancel to node 2, scrubbing any state the
  // aborted query could have left there.
  client.heal_node(2);
  EXPECT_EQ(faults.dropped_messages(), dropped_after_cancel);
  expect_no_leaked_pending(client);
  (void)dropped_before_cancel;

  // Retry over the healed cluster completes and leaves nothing behind.
  const auto retried = client.query(query);
  EXPECT_TRUE(retried.completed);
  expect_same_hits(healthy.hits, retried.hits);
  expect_no_leaked_pending(client);
}

TEST(ConcurrentQuery, ThreadedStallHealRetryLeavesNoLeakedPending) {
  // Same protocol over real threads: the stall is detected by transport
  // quiescence (idle() without a reply) instead of simulator drain.
  auto options = cluster_options();
  options.runtime.transport_mode = core::TransportMode::kThreaded;
  const auto store = workload::generate_database(database_spec());
  core::Client client(options);
  client.index(store);
  const auto query = probe_of(store, 3, 10, 120);

  client.fault_injector().fail_node(2);
  const auto stalled = client.query(query);
  EXPECT_FALSE(stalled.completed);

  client.heal_node(2);
  expect_no_leaked_pending(client);

  const auto retried = client.query(query);
  EXPECT_TRUE(retried.completed);
  EXPECT_TRUE(hits_contain(retried.hits, 3));
  // wait() returns the instant the reply lands at the client actor; the
  // coordinator may still be inside the handler that erases its pending
  // entry. Quiesce before inspecting node state.
  client.settle();
  expect_no_leaked_pending(client);
  EXPECT_EQ(client.metrics().counter("net.handler_errors"), 0u);
}

// Stall detection on a live transport that never goes idle: one query's
// dataflow is cut (its fan-in waits on a node whose traffic is dropped,
// with no Client::fail_node to exclude it) while a second thread keeps
// the cluster busy with fresh queries for far longer than the deadline,
// so idle() never fires. wait() must still give up at query_timeout and
// cancel within one settle round, not when the load happens to stop.
TEST(ConcurrentQuery, ThreadedStallUnderLoadEndsAtTheDeadline) {
  constexpr double kQueryTimeout = 0.3;
  constexpr double kSettleBound = 8.0;  // generous: sanitizer builds
  // Longer than that bound, so a wait() that ignores its deadline and
  // returns only once the load stops fails the check below.
  constexpr auto kLoadFor = std::chrono::seconds(10);
  auto options = cluster_options();
  options.runtime.transport_mode = core::TransportMode::kThreaded;
  options.runtime.query_timeout = kQueryTimeout;
  const auto store = workload::generate_database(database_spec());
  core::Client client(options);
  client.index(store);
  const auto query = probe_of(store, 3, 10, 120);

  client.fault_injector().fail_node(2);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> submitted{0};
  std::vector<core::QueryTicket> background;
  const auto start = std::chrono::steady_clock::now();
  std::thread load([&] {
    // Offered faster than the cluster drains, so a backlog is always
    // queued: the cluster stays busy until the stalled wait returns.
    for (std::size_t i = 0;
         !done.load() && std::chrono::steady_clock::now() - start < kLoadFor;
         ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        background.push_back(client.submit(probe_of(store, j, 5, 140)));
      }
      submitted.store(i + 1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  while (submitted.load() < 25) std::this_thread::yield();

  // Watchdog: a wait() that hangs fails the test instead of the CI job.
  auto stalled = std::async(std::launch::async,
                            [&] { return client.wait(client.submit(query)); });
  if (stalled.wait_for(std::chrono::seconds(120)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "wait() hung on a stalled query under load\n");
    std::abort();  // the hung waiter cannot be joined
  }
  const auto outcome = stalled.get();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  done.store(true);
  load.join();

  EXPECT_FALSE(outcome.completed);
  EXPECT_TRUE(outcome.hits.empty());
  EXPECT_LT(elapsed, kQueryTimeout + kSettleBound);
  RecordProperty("stalled_wait_ms", static_cast<int>(elapsed * 1e3));

  client.heal_node(2);
  for (const auto& ticket : background) client.wait(ticket);
  client.settle();
  expect_no_leaked_pending(client);
  EXPECT_EQ(client.metrics().counter("net.handler_errors"), 0u);
}

// A node that served ranged fetches for `trace`'s query — a victim for
// the mid-fetch fault below. Prefers one that is not node 0 so the first
// coordinator stays reachable. kClientNode when no fetch was traced.
net::NodeId fetch_serving_node(const obs::QueryTrace& trace) {
  std::set<net::NodeId> fetched;
  for (const auto& span : trace.spans) {
    if (span.name == "node.fetch") {
      fetched.insert(static_cast<net::NodeId>(span.span_id >> 32));
    }
  }
  for (const net::NodeId node : fetched) {
    if (node != 0) return node;
  }
  return fetched.empty() ? net::kClientNode : *fetched.begin();
}

core::ClientOptions fetch_fault_options() {
  auto options = cluster_options();
  options.runtime.enable_tracing = true;
  return options;
}

// A sequence home fails *mid-fetch*: its searches answered fine, then it
// stops serving kFetchRange. Group entries stall awaiting fetches — with
// extensions for already-arrived ranges possibly in flight — so the
// cancel path must drain those tasks before scrubbing pending state, and
// the healed cluster must complete the retry with the healthy ranking.
TEST(ConcurrentQuery, HomeFailedMidFetchCancelsThenHealsAndCompletes) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(fetch_fault_options());
  client.index(store);
  const auto query = probe_of(store, 3, 10, 120);

  const auto healthy_ticket = client.submit(query);
  const auto healthy = client.wait(healthy_ticket);
  ASSERT_TRUE(healthy.completed);
  const auto victim =
      fetch_serving_node(client.collect_trace(healthy_ticket.id));
  ASSERT_NE(victim, net::kClientNode) << "query traced no ranged fetches";

  client.fault_injector().drop_type_to(victim, core::kFetchRange);
  const auto stalled = client.query(query);
  EXPECT_FALSE(stalled.completed);
  EXPECT_TRUE(stalled.hits.empty());

  client.heal_node(victim);
  expect_no_leaked_pending(client);

  const auto retried = client.query(query);
  EXPECT_TRUE(retried.completed);
  expect_same_hits(healthy.hits, retried.hits);
  expect_no_leaked_pending(client);
}

TEST(ConcurrentQuery, ThreadedHomeFailedMidFetchCancelsThenHealsAndCompletes) {
  auto options = fetch_fault_options();
  options.runtime.transport_mode = core::TransportMode::kThreaded;
  const auto store = workload::generate_database(database_spec());
  core::Client client(options);
  client.index(store);
  const auto query = probe_of(store, 3, 10, 120);

  const auto healthy_ticket = client.submit(query);
  const auto healthy = client.wait(healthy_ticket);
  ASSERT_TRUE(healthy.completed);
  const auto victim =
      fetch_serving_node(client.collect_trace(healthy_ticket.id));
  ASSERT_NE(victim, net::kClientNode) << "query traced no ranged fetches";

  client.fault_injector().drop_type_to(victim, core::kFetchRange);
  const auto stalled = client.query(query);
  EXPECT_FALSE(stalled.completed);

  client.heal_node(victim);
  expect_no_leaked_pending(client);

  const auto retried = client.query(query);
  EXPECT_TRUE(retried.completed);
  expect_same_hits(healthy.hits, retried.hits);
  client.settle();
  expect_no_leaked_pending(client);
  EXPECT_EQ(client.metrics().counter("net.handler_errors"), 0u);
}

}  // namespace
}  // namespace mendel
