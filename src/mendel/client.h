// mendel::core::Client — the public facade of the framework.
//
// A Client owns a complete Mendel deployment: the two-tier topology, the
// vp-prefix routing tree, one StorageNode actor per cluster node, and the
// message transport. Typical use (see examples/quickstart.cpp):
//
//   mendel::core::ClientOptions options;
//   options.topology.num_groups = 10;
//   options.topology.nodes_per_group = 5;
//   mendel::core::Client client(options);
//   client.index(store);                       // build + disperse the index
//   auto outcome = client.query(query);        // similarity search
//   for (const auto& hit : outcome.hits) ...;  // ranked alignments
//
// Three runtimes back the same cluster code (selected through
// net::TransportFactory):
//   * TransportMode::kSim (default) — the deterministic discrete-event
//     simulator with virtual time; the runtime the benchmark figures are
//     measured on. Single-threaded: submit/wait/query must all be called
//     from one thread.
//   * TransportMode::kThreaded — one OS thread per storage node, which
//     runs all of that node's work. submit() and wait() are thread-safe, so
//     many application threads can drive overlapping queries (the
//     concurrent query pipeline).
//   * TransportMode::kSocket — real sockets between processes. The Client
//     hosts no StorageNodes; mendel-node daemons (tools/mendel_node) serve
//     them at the endpoints in RuntimeOptions::socket, built by kNodeInit
//     messages. Node liveness comes from heartbeats mapped onto the same
//     node_down/cancel/heal machinery the in-process runtimes use for
//     injected faults.
// The Client drives all three through the one net::Transport contract:
// start() when the nodes exist, settle() between phases, idle() and now()
// in wait(), stop() at destruction. The only mode fact it reads is where
// the storage nodes live (spawn_nodes).
//
// Concurrent admission: submit() injects a query and returns a ticket;
// wait() blocks for that query's result. query() is submit+wait, and
// query_batch() admits a whole set before collecting any result — under
// the simulator that batches the virtual-time dataflow, under threads the
// queries genuinely overlap. Replies land in a per-query_id reply table,
// so any number of queries can be in flight simultaneously. A query stalls
// when its reply is missing once the transport is idle, or past
// RuntimeOptions::query_timeout on a cluster that never goes idle (always
// the case across processes); a stalled query is cancelled cluster-wide.
//
// The Client also exposes the paper's future-work features implemented
// here: index persistence (save_index/load_index) and fault injection with
// replication (fail_node).
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cluster/topology.h"
#include "src/common/thread_annotations.h"
#include "src/mendel/indexer.h"
#include "src/mendel/params.h"
#include "src/mendel/storage_node.h"
#include "src/net/transport_factory.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mendel::core {

// The mode enum now lives with the factory in src/net (the net layer owns
// transport selection); the alias keeps every existing core::TransportMode
// spelling working.
using TransportMode = net::TransportMode;

// Runtime knobs, grouped apart from the index-shape options: everything
// here may differ between two deployments of the same index (transport,
// node settings, tracing) without affecting results. Plain
// aggregate with member defaults, so `RuntimeOptions{}` and partial
// designated initialization both work.
struct RuntimeOptions {
  // Runtime selection (see the header comment).
  TransportMode transport_mode = TransportMode::kSim;
  // Settings of every storage node this Client hosts (see NodeSettings).
  // In kSocket mode it configures no node: the daemons take theirs from
  // mendel-node flags. The MENDEL_ARENA_BUDGET environment variable (see
  // parse_arena_budget) overrides node.arena_resident_budget at Client
  // construction — CI uses it to force spilling without touching call
  // sites.
  NodeSettings node;
  // Stamps every submitted query's dataflow with an enabled TraceContext so
  // nodes record spans (collect with Client::collect_trace). Off, no spans
  // are recorded anywhere.
  bool enable_tracing = false;
  // Schedule exploration (TransportMode::kSim only): nonzero seeds a
  // deterministic per-delivery jitter in the simulator so near-tied
  // message arrivals land in a seed-dependent order. Ranked results must
  // not depend on the seed — the parity suite sweeps seeds to prove it.
  // 0 (default) keeps the historical FIFO-tie-break schedule. See
  // set_schedule_seed in src/net/sim_transport.h.
  std::uint64_t schedule_seed = 0;
  // Live transports (kThreaded, kSocket): seconds wait() allows a query's
  // reply before declaring the query stalled and cancelling it. The
  // simulator never needs it: its stalls show as an idle, reply-less run.
  double query_timeout = 30.0;
  // Socket deployment (TransportMode::kSocket only): the cluster endpoint
  // table and timeouts. The MENDEL_ENDPOINTS environment variable
  // (comma-separated endpoint list) overrides `socket.endpoints` at Client
  // construction, mirroring the daemon side.
  net::SocketOptions socket;
};

// Parses a MENDEL_ARENA_BUDGET value: a decimal byte count with at most one
// k/m/g suffix (binary multiples), nothing else. A sign, any other
// trailing character, or a count that overflows returns `fallback`.
std::size_t parse_arena_budget(std::string_view text, std::size_t fallback);

struct ClientOptions {
  cluster::TopologyConfig topology;
  IndexingOptions indexing;
  vpt::PrefixTreeOptions prefix_tree;
  net::CostModel cost;
  std::size_t bucket_capacity = kDefaultBucketCapacity;
  RuntimeOptions runtime;
};

struct QueryOutcome {
  std::vector<align::AlignmentHit> hits;
  // Turnaround from the query's injection to the client's receipt of the
  // ranked result: virtual time under TransportMode::kSim (what Figures
  // 6a–6c measure), wall time under every live transport.
  double turnaround = 0.0;
  // Exactly this query's network traffic, even with other queries in
  // flight: the transport tags every message whose request_id equals the
  // query id into a per-query bucket between submit() and wait() (the
  // dataflow reuses the query id as request_id end to end).
  net::NetworkStats traffic;
  // False when the query's dataflow stalled (e.g. a node failed silently
  // mid-query and a fan-in never completed). The client then broadcasts
  // kCancelQuery so no pending state leaks, and returns empty hits.
  bool completed = true;
};

// Handle for an admitted (in-flight) query; redeem with Client::wait().
struct QueryTicket {
  std::uint64_t id = 0;
  double injected_at = 0.0;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Builds the prefix tree from `store`, binds the topology, spawns the
  // storage nodes, and streams the database in. Callable once per Client
  // (use a fresh Client per experiment configuration).
  IndexReport index(const seq::SequenceStore& store);

  // Incremental indexing: streams additional sequences into an
  // already-indexed cluster (the DHT's scale-with-the-data story). The new
  // sequences get fresh cluster-wide ids starting at the returned base id;
  // hits reference those ids. Tier-1 routing keeps using the original
  // LSH sample.
  seq::SequenceId add_sequences(const seq::SequenceStore& more);

  // Elastic scale-out (paper §I: "commodity hardware can be added
  // incrementally"): grows `group` by one storage node and runs the
  // rebalance protocol — consistent hashing moves ~1/n of the group's
  // blocks (and a slice of the sequence repository) onto the newcomer.
  // Returns the new node's id. Queries work unchanged afterwards.
  // Simulator mode only: the live transports pin their actor set at
  // start() and reject the new node (InvalidArgument, nothing changed).
  net::NodeId add_node(std::uint32_t group);

  bool indexed() const { return indexed_; }

  // --- concurrent query admission ----------------------------------------
  // Injects a query into the cluster and returns immediately. Thread-safe
  // in TransportMode::kThreaded; in kSim the caller must stay on the one
  // driving thread (the simulator itself is single-threaded).
  QueryTicket submit(const seq::Sequence& query, QueryParams params = {});
  // Blocks until the ticket's query completed or stalled: the transport
  // went idle without its reply, or runtime.query_timeout passed. On a
  // stall, broadcasts kCancelQuery to every alive node — nodes the
  // transport knows are down get their cancel deferred until heal_node() —
  // settles, and reports completed = false.
  QueryOutcome wait(const QueryTicket& ticket);
  // submit() + wait().
  QueryOutcome query(const seq::Sequence& query, QueryParams params = {});
  // Admits every query before collecting any result, so the queries share
  // the cluster concurrently. Outcomes are in input order.
  std::vector<QueryOutcome> query_batch(
      const std::vector<seq::Sequence>& queries, QueryParams params = {});

  // --- observability -----------------------------------------------------
  // One coherent reading of every stat the cluster keeps: the registry's
  // own instruments (pipeline-stage latency histograms, client counters)
  // plus synthetic entries folding in the per-node NodeCounters totals
  // (node.*), transport traffic and health (net.*, the same keys in every
  // mode) and span-buffer health (trace.*).
  // Serialize with MetricsSnapshot::to_json()/to_prometheus().
  obs::MetricsSnapshot metrics() const;
  // The registry behind metrics(); for attaching extra instruments.
  obs::MetricsRegistry& metrics_registry() { return registry_; }
  // Collects a traced query's spans from every alive node (kCollectTrace
  // broadcast) plus the client's own submit/reply spans, and reassembles
  // the timeline. Call after wait(); requires runtime.enable_tracing.
  // Spans live in bounded per-node buffers until collected, so collect (or
  // ignore) traces promptly when tracing many queries.
  obs::QueryTrace collect_trace(std::uint64_t query_id);

  // --- telemetry ---------------------------------------------------------
  const cluster::Topology& topology() const;
  std::vector<std::uint64_t> block_counts() const;
  // The transport's fault-injection capability and membership view (all
  // modes; node_down() includes heartbeat verdicts over sockets).
  net::FaultInjector& fault_injector() const;
  // Returns once every message sent before the call has been handled
  // (net::Transport::settle): the simulator runs dry, threads and sockets
  // run a settle round, sockets bounded by socket.settle_timeout. Call it
  // before inspecting node state after wait(), whose reply can land while
  // the coordinator is still finishing its handler.
  void settle();
  StorageNode& node(net::NodeId id);
  const StorageNode& node(net::NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }
  // Routing prefix tree, valid once indexed (verify tooling re-hashes
  // stored blocks against it during placement audits).
  const vpt::VpPrefixTree& prefix_tree() const;

  // --- fault tolerance (paper §VII-B future work) -------------------------
  // Marks a node failed: the transport drops its traffic and every other
  // node excludes it from fan-outs and home-node lookups.
  void fail_node(net::NodeId id);
  // Re-admits the node and flushes any cancel broadcasts that were
  // deferred while it was down (so no cancelled query's pending state can
  // survive on a healed node).
  void heal_node(net::NodeId id);

  // --- persistence (paper §VII-B future work) ------------------------------
  // Snapshot the fully built index (routing state + every node's blocks
  // and sequence shard) so "pre-indexed data for popular large datasets"
  // can be reloaded without re-indexing.
  void save_index(const std::string& path) const;
  // Restores a snapshot into this (un-indexed) Client. The snapshot's
  // topology replaces whatever ClientOptions carried (an index is only
  // valid on the cluster shape it was built for).
  void load_index(const std::string& path);

 private:
  // Filled by the client actor when a kQueryResult lands.
  struct Reply {
    std::vector<align::AlignmentHit> hits;
    double arrival = 0.0;
  };

  void spawn_nodes(seq::Alphabet alphabet);
  StorageNodeConfig node_config();
  void send(net::NodeId to, std::uint32_t type, std::uint64_t request_id = 0,
            std::vector<std::uint8_t> payload = {});
  // Sends one message to every alive node from id `first` up but `skip`.
  void broadcast(std::uint32_t type, std::uint64_t request_id,
                 const std::vector<std::uint8_t>& payload,
                 net::NodeId first = 0, net::NodeId skip = net::kClientNode);
  // The kNodeInit payload describing the current cluster (remote nodes).
  NodeInitPayload make_node_init() const;
  std::vector<std::uint8_t> residues_payload() const;
  // kSetResidues to every alive node, then settle. In-process nodes hear
  // control changes by message too, so no client thread writes node state
  // under a running dispatch thread.
  void propagate_residues();
  // kSetNodeDown{changed,down} to every alive node (but `changed` itself
  // when it went down); the caller settles.
  void broadcast_membership(net::NodeId changed, bool down);
  bool transport_down(net::NodeId id) const;
  // kCancelQuery to every node, deferring nodes the transport knows are
  // down (flushed on heal_node).
  void broadcast_cancel(std::uint64_t query_id) MENDEL_EXCLUDES(cancel_mu_);
  std::optional<Reply> take_reply(std::uint64_t query_id)
      MENDEL_EXCLUDES(reply_mu_);
  QueryOutcome finish_outcome(const QueryTicket& ticket,
                              std::optional<Reply> reply);
  // Records a client-side span (node = net::kClientNode) and returns its id
  // (0 when tracing is off).
  std::uint64_t record_client_span(const char* name, std::uint64_t query_id,
                                   std::uint64_t parent_span, double start,
                                   std::uint64_t value);
  // Refreshes the cluster.load_* gauges from the current block placement;
  // called whenever placement changes (index/add_sequences/add_node/load).
  void publish_load_gauges();

  ClientOptions options_;
  std::unique_ptr<cluster::Topology> topology_;
  std::unique_ptr<score::DistanceMatrix> distance_;
  std::unique_ptr<vpt::VpPrefixTree> prefix_tree_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  std::unique_ptr<net::Actor> client_actor_;
  bool indexed_ = false;
  std::atomic<std::uint64_t> next_query_id_{1};
  seq::SequenceId next_sequence_id_ = 0;
  std::uint64_t database_residues_ = 0;
  seq::Alphabet alphabet_ = seq::Alphabet::kProtein;

  // Per-query_id reply table: the client actor files results here; wait()
  // redeems tickets against it. Guarded by reply_mu_ (the actor runs on a
  // transport thread in kThreaded mode).
  std::mutex reply_mu_;
  std::condition_variable reply_cv_;
  std::unordered_map<std::uint64_t, Reply> replies_
      MENDEL_GUARDED_BY(reply_mu_);

  // Cancels not deliverable because the target was down, keyed by node.
  std::mutex cancel_mu_;
  std::map<net::NodeId, std::vector<std::uint64_t>> deferred_cancels_
      MENDEL_GUARDED_BY(cancel_mu_);

  // --- observability state ------------------------------------------------
  obs::MetricsRegistry registry_;
  // Client counters / turnaround histogram, resolved at construction.
  obs::Counter* c_submitted_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_stalled_ = nullptr;
  obs::LatencyHistogram* h_turnaround_ = nullptr;
  // The client's own spans (client.submit / client.reply) plus, keyed by
  // query id, the submit span each reply should parent to and the span
  // reports nodes send back for kCollectTrace.
  obs::SpanBuffer client_spans_;
  std::mutex trace_mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> submit_spans_
      MENDEL_GUARDED_BY(trace_mu_);
  std::unordered_map<std::uint64_t, std::vector<obs::SpanRecord>>
      trace_reports_ MENDEL_GUARDED_BY(trace_mu_);
};

}  // namespace mendel::core
