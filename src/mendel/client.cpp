#include "src/mendel/client.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "src/cluster/telemetry.h"
#include "src/common/error.h"
#include "src/common/stopwatch.h"
#include "src/hash/sha1.h"
#include "src/mendel/protocol.h"
#include "src/scoring/matrix.h"

namespace mendel::core {

namespace {

// MENDEL_ARENA_BUDGET=<bytes>[k|m|g] overrides every node's resident arena
// budget; CI's spill job uses it to force out-of-core operation without
// touching call sites. Malformed values are ignored.
std::size_t arena_budget_from_env(std::size_t fallback) {
  const char* env = std::getenv("MENDEL_ARENA_BUDGET");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == env) return fallback;
  std::size_t scale = 1;
  switch (*end) {
    case '\0': break;
    case 'k': case 'K': scale = 1024ull; break;
    case 'm': case 'M': scale = 1024ull * 1024; break;
    case 'g': case 'G': scale = 1024ull * 1024 * 1024; break;
    default: return fallback;
  }
  return static_cast<std::size_t>(value) * scale;
}

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      client_spans_(options_.runtime.trace_buffer_capacity) {
  options_.runtime.arena_resident_budget =
      arena_budget_from_env(options_.runtime.arena_resident_budget);
  options_.runtime.socket.endpoints =
      net::endpoints_from_env(std::move(options_.runtime.socket.endpoints));
  net::TransportConfig transport_config;
  transport_config.mode = options_.runtime.transport_mode;
  transport_config.cost = options_.cost;
  transport_config.schedule_seed = options_.runtime.schedule_seed;
  transport_config.socket = options_.runtime.socket;
  transport_owner_ = net::make_transport(transport_config);
  transport_ = transport_owner_.get();
  sim_ = dynamic_cast<net::SimTransport*>(transport_);
  threaded_ = dynamic_cast<net::ThreadTransport*>(transport_);
  socket_ = dynamic_cast<net::SocketTransport*>(transport_);
  if (options_.runtime.search_threads > 0) {
    search_pool_ =
        std::make_unique<ThreadPool>(options_.runtime.search_threads);
  }
  if (options_.runtime.enable_metrics) {
    c_submitted_ = &registry_.counter("client.queries_submitted");
    c_completed_ = &registry_.counter("client.queries_completed");
    c_stalled_ = &registry_.counter("client.queries_stalled");
    h_turnaround_ = &registry_.histogram("client.turnaround_seconds");
  }
  client_actor_ = std::make_unique<net::FunctionActor>(
      [this](const net::Message& message, net::Context& ctx) {
        if (message.type == kBarrierAck) {
          std::lock_guard lock(barrier_mu_);
          if (message.request_id == barrier_id_ &&
              barrier_outstanding_ > 0 && --barrier_outstanding_ == 0) {
            barrier_cv_.notify_all();
          }
          return;
        }
        if (message.type == kTraceReport) {
          auto report = decode_payload<TraceReportPayload>(message.payload);
          std::lock_guard lock(trace_mu_);
          auto& spans = trace_reports_[message.request_id];
          spans.insert(spans.end(),
                       std::make_move_iterator(report.spans.begin()),
                       std::make_move_iterator(report.spans.end()));
          return;
        }
        if (message.type != kQueryResult) return;
        auto payload = decode_payload<QueryResultPayload>(message.payload);
        Reply reply;
        reply.hits = std::move(payload.hits);
        reply.arrival = ctx.now();
        if (options_.runtime.enable_tracing) {
          std::uint64_t parent = 0;
          {
            std::lock_guard lock(trace_mu_);
            auto it = submit_spans_.find(message.request_id);
            if (it != submit_spans_.end()) {
              parent = it->second;
              submit_spans_.erase(it);
            }
          }
          record_client_span("client.reply", message.request_id, parent,
                             ctx.now(), reply.hits.size());
        }
        {
          std::lock_guard lock(reply_mu_);
          replies_[message.request_id] = std::move(reply);
        }
        reply_cv_.notify_all();
      });
  transport_->register_actor(net::kClientNode, client_actor_.get());
}

Client::~Client() {
  // The threaded workers reference the storage nodes; stop them before the
  // nodes_ vector is destroyed. The socket dispatch threads reference the
  // client actor, so they too stop before members go away.
  if (threaded_ && started_) threaded_->drain_and_stop();
  if (socket_) socket_->stop();
}

void Client::spawn_nodes(seq::Alphabet alphabet) {
  alphabet_ = alphabet;
  // distance_ is allocated by the caller (index/load_index) BEFORE the
  // prefix tree captures its address; it must never be reallocated here.
  require(distance_ != nullptr, "spawn_nodes: distance matrix not set");

  if (socket_) {
    // The nodes live in mendel-node daemons: start the transport (binds
    // nothing locally, dials every endpoint), broadcast the cluster
    // description, and barrier so indexing only starts against
    // fully-constructed remote nodes.
    require(options_.runtime.socket.endpoints.size() >=
                topology_->total_nodes(),
            "spawn_nodes: socket mode needs an endpoint per node "
            "(RuntimeOptions::socket.endpoints or MENDEL_ENDPOINTS)");
    socket_->start();
    started_ = true;
    const auto payload = encode_payload(make_node_init());
    for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
      net::Message message;
      message.from = net::kClientNode;
      message.to = id;
      message.type = kNodeInit;
      message.request_id = 0;
      message.payload = payload;
      transport_->send(std::move(message));
    }
    settle();
    return;
  }

  StorageNodeConfig node_config;
  node_config.topology = topology_.get();
  node_config.prefix_tree = prefix_tree_.get();
  node_config.distance = distance_.get();
  node_config.alphabet = alphabet;
  node_config.bucket_capacity = options_.bucket_capacity;
  node_config.search_pool = search_pool_.get();
  node_config.nn_cache_capacity = options_.runtime.nn_cache_capacity;
  node_config.metrics =
      options_.runtime.enable_metrics ? &registry_ : nullptr;
  node_config.trace_buffer_capacity = options_.runtime.trace_buffer_capacity;
  node_config.arena_resident_budget = options_.runtime.arena_resident_budget;
  node_config.arena_packing = options_.runtime.arena_packing;
  node_config.arena_segment_bytes = options_.runtime.arena_segment_bytes;
  node_config.prune_extensions = options_.runtime.prune_extensions;

  nodes_.reserve(topology_->total_nodes());
  for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
    nodes_.push_back(std::make_unique<StorageNode>(id, node_config));
    transport_->register_actor(id, nodes_.back().get());
  }
  if (threaded_) {
    threaded_->start();
    started_ = true;
  }
}

double Client::settle() {
  if (sim_) return sim_->run_until_idle();
  if (threaded_) {
    threaded_->wait_idle();
    return 0.0;
  }
  settle_socket();
  return 0.0;
}

void Client::settle_socket() {
  std::vector<net::NodeId> targets;
  for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
    if (!transport_down(id)) targets.push_back(id);
  }
  if (targets.empty()) return;
  const std::uint64_t barrier_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(barrier_mu_);
    barrier_id_ = barrier_id;
    barrier_outstanding_ = targets.size();
  }
  for (net::NodeId id : targets) {
    net::Message message;
    message.from = net::kClientNode;
    message.to = id;
    message.type = kBarrier;
    message.request_id = barrier_id;
    transport_->send(std::move(message));
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              options_.runtime.socket.settle_timeout));
  std::unique_lock lock(barrier_mu_);
  while (barrier_outstanding_ > 0) {
    if (barrier_cv_.wait_until(lock, deadline) ==
        std::cv_status::timeout) {
      // A node died (or dropped our barrier) mid-settle; give up rather
      // than hang — the caller's own fault handling owns the follow-up.
      barrier_outstanding_ = 0;
      break;
    }
  }
  barrier_id_ = 0;
}

double Client::now_seconds() const {
  if (sim_) return sim_->external_time();
  return monotonic_seconds();
}

bool Client::transport_down(net::NodeId id) const {
  return fault_injector().node_down(id);
}

net::FaultInjector& Client::fault_injector() const {
  net::FaultInjector* faults = transport_->fault_injector();
  require(faults != nullptr,
          "Client::fault_injector: transport has no fault injector");
  return *faults;
}

void Client::propagate_residues() {
  if (socket_) {
    // Remote nodes learn the E-value denominator by message.
    SetResiduesPayload payload;
    payload.residues = database_residues_;
    const auto bytes = encode_payload(payload);
    for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
      if (transport_down(id)) continue;
      net::Message message;
      message.from = net::kClientNode;
      message.to = id;
      message.type = kSetResidues;
      message.request_id = 0;
      message.payload = bytes;
      transport_->send(std::move(message));
    }
    settle();
    return;
  }
  for (auto& node : nodes_) {
    node->set_database_residues(database_residues_);
  }
}

NodeInitPayload Client::make_node_init() const {
  NodeInitPayload init;
  // One index epoch per Client (socket mode forbids load_index), so the
  // generation is a constant: re-sending it to a daemon that never died is
  // an ignored no-op, while a restarted daemon (generation 0) rebuilds.
  init.generation = 1;
  init.alphabet = static_cast<std::uint8_t>(alphabet_);
  init.num_groups = options_.topology.num_groups;
  init.nodes_per_group = options_.topology.nodes_per_group;
  init.ring_virtual_nodes = options_.topology.ring_virtual_nodes;
  init.replication = options_.topology.replication;
  init.sequence_replication = options_.topology.sequence_replication;
  const std::uint32_t dense =
      options_.topology.num_groups * options_.topology.nodes_per_group;
  for (net::NodeId id = dense; id < topology_->total_nodes(); ++id) {
    init.extra_node_groups.push_back(topology_->address(id).group);
  }
  init.bucket_capacity = options_.bucket_capacity;
  init.database_residues = database_residues_;
  for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
    if (transport_down(id)) init.down_nodes.push_back(id);
  }
  CodecWriter tree;
  prefix_tree_->encode(tree);
  init.prefix_tree = tree.take();
  return init;
}

IndexReport Client::index(const seq::SequenceStore& store) {
  require(!indexed_, "Client::index: already indexed");
  require(!store.empty(), "Client::index: empty store");

  topology_ = std::make_unique<cluster::Topology>(options_.topology);
  distance_ = std::make_unique<score::DistanceMatrix>(
      score::default_distance(store.alphabet()));

  Indexer sampler(topology_.get(), distance_.get(), options_.indexing);
  prefix_tree_ = std::make_unique<vpt::VpPrefixTree>(
      sampler.build_prefix_tree(store, options_.prefix_tree));
  topology_->bind_prefixes(prefix_tree_->leaf_prefixes());

  spawn_nodes(store.alphabet());

  Indexer indexer(topology_.get(), distance_.get(), options_.indexing);
  const IndexReport report = indexer.index_store(
      store, *prefix_tree_, *transport_, net::kClientNode);
  settle();

  database_residues_ = store.total_residues();
  propagate_residues();
  next_sequence_id_ = static_cast<seq::SequenceId>(store.size());
  indexed_ = true;
  publish_load_gauges();
  return report;
}

seq::SequenceId Client::add_sequences(const seq::SequenceStore& more) {
  require(indexed_, "Client::add_sequences before index()/load_index()");
  require(more.alphabet() == alphabet_,
          "Client::add_sequences: alphabet mismatch");
  require(!more.empty(), "Client::add_sequences: empty store");
  const seq::SequenceId base = next_sequence_id_;

  Indexer indexer(topology_.get(), distance_.get(), options_.indexing);
  indexer.index_store(more, *prefix_tree_, *transport_, net::kClientNode,
                      base);
  settle();

  next_sequence_id_ += static_cast<seq::SequenceId>(more.size());
  database_residues_ += more.total_residues();
  propagate_residues();
  publish_load_gauges();
  return base;
}

net::NodeId Client::add_node(std::uint32_t group) {
  require(indexed_, "Client::add_node before index()/load_index()");
  require(sim_ != nullptr,
          "Client::add_node: elastic scale-out requires TransportMode::kSim "
          "(the threaded runtime pins its worker set at start())");
  const net::NodeId id = topology_->add_node(group);

  StorageNodeConfig node_config;
  node_config.topology = topology_.get();
  node_config.prefix_tree = prefix_tree_.get();
  node_config.distance = distance_.get();
  node_config.alphabet = alphabet_;
  node_config.bucket_capacity = options_.bucket_capacity;
  node_config.database_residues = database_residues_;
  node_config.search_pool = search_pool_.get();
  node_config.nn_cache_capacity = options_.runtime.nn_cache_capacity;
  node_config.metrics =
      options_.runtime.enable_metrics ? &registry_ : nullptr;
  node_config.trace_buffer_capacity = options_.runtime.trace_buffer_capacity;
  node_config.arena_resident_budget = options_.runtime.arena_resident_budget;
  node_config.arena_packing = options_.runtime.arena_packing;
  node_config.arena_segment_bytes = options_.runtime.arena_segment_bytes;
  node_config.prune_extensions = options_.runtime.prune_extensions;
  nodes_.push_back(std::make_unique<StorageNode>(id, node_config));
  transport_->register_actor(id, nodes_.back().get());

  // Every pre-existing node re-evaluates ownership; blocks and sequences
  // the newcomer now owns flow to it (consistent hashing moves only the
  // remapped slice).
  for (net::NodeId existing = 0; existing < id; ++existing) {
    net::Message message;
    message.from = net::kClientNode;
    message.to = existing;
    message.type = kRebalance;
    message.request_id = 0;
    transport_->send(std::move(message));
  }
  settle();
  publish_load_gauges();
  return id;
}

// --- concurrent query admission --------------------------------------------

QueryTicket Client::submit(const seq::Sequence& query, QueryParams params) {
  require(indexed_, "Client::submit before index()/load_index()");
  require(query.alphabet() == alphabet_,
          "Client::submit: alphabet mismatch with indexed database");

  const std::uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  // Symmetric architecture: any node can be the system entry point; rotate
  // deterministically per query.
  const net::NodeId entry = static_cast<net::NodeId>(
      hashing::sha1_prefix64("entry" + std::to_string(query_id)) %
      topology_->total_nodes());

  QueryRequestPayload request;
  request.params = std::move(params);
  request.query.assign(query.codes().begin(), query.codes().end());

  QueryTicket ticket;
  ticket.id = query_id;
  ticket.injected_at = now_seconds();

  if (options_.runtime.enable_tracing) {
    const std::uint64_t submit_span =
        record_client_span("client.submit", query_id, /*parent_span=*/0,
                           ticket.injected_at, request.query.size());
    request.trace.enabled = 1;
    request.trace.parent_span = submit_span;
    std::lock_guard lock(trace_mu_);
    submit_spans_[query_id] = submit_span;
  }

  // Open this query's exact traffic bucket before the first message flows.
  transport_->begin_query_stats(query_id);
  if (c_submitted_ != nullptr) c_submitted_->add();

  net::Message message;
  message.from = net::kClientNode;
  message.to = entry;
  message.type = kQueryRequest;
  message.request_id = query_id;
  message.payload = encode_payload(request);
  transport_->send(std::move(message));
  return ticket;
}

std::optional<Client::Reply> Client::take_reply(std::uint64_t query_id) {
  std::lock_guard lock(reply_mu_);
  auto it = replies_.find(query_id);
  if (it == replies_.end()) return std::nullopt;
  std::optional<Reply> reply = std::move(it->second);
  replies_.erase(it);
  return reply;
}

void Client::broadcast_cancel(std::uint64_t query_id) {
  for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
    if (transport_down(id)) {
      // The transport would drop the cancel anyway; remember it so the
      // node is scrubbed the moment it heals.
      std::lock_guard lock(cancel_mu_);
      deferred_cancels_[id].push_back(query_id);
      continue;
    }
    net::Message cancel;
    cancel.from = net::kClientNode;
    cancel.to = id;
    cancel.type = kCancelQuery;
    cancel.request_id = query_id;
    transport_->send(std::move(cancel));
  }
}

QueryOutcome Client::finish_outcome(const QueryTicket& ticket,
                                    std::optional<Reply> reply) {
  QueryOutcome outcome;
  if (reply.has_value()) {
    outcome.hits = std::move(reply->hits);
    outcome.turnaround = reply->arrival - ticket.injected_at;
  } else {
    // The dataflow stalled (a fan-in waits on a node whose messages were
    // dropped). Abort cluster-side pending state so nothing leaks, and
    // report the incomplete outcome instead of hanging or throwing.
    outcome.completed = false;
    broadcast_cancel(ticket.id);
    const double horizon = settle();
    outcome.turnaround =
        (sim_ ? horizon : now_seconds()) - ticket.injected_at;
    // No reply means no client.reply span consumed the submit-span link.
    std::lock_guard lock(trace_mu_);
    submit_spans_.erase(ticket.id);
  }
  // Exactly this query's traffic (the transport tagged every message with
  // this request_id into the bucket opened at submit). The stalled branch
  // above runs first, so the abort's cancel broadcast is included.
  outcome.traffic = transport_->take_query_stats(ticket.id);
  if (h_turnaround_ != nullptr) {
    h_turnaround_->record_seconds(outcome.turnaround);
  }
  if (outcome.completed) {
    if (c_completed_ != nullptr) c_completed_->add();
  } else if (c_stalled_ != nullptr) {
    c_stalled_->add();
  }
  return outcome;
}

void Client::publish_load_gauges() {
  // Socket mode hosts no local nodes, so there is no placement to report
  // (nodes_ is empty; the daemons see their own shards only).
  if (!options_.runtime.enable_metrics || nodes_.empty()) return;
  const auto counts = block_counts();
  cluster::publish_load(cluster::analyze_load(counts), registry_);
}

std::uint64_t Client::record_client_span(const char* name,
                                         std::uint64_t query_id,
                                         std::uint64_t parent_span,
                                         double start, std::uint64_t value) {
  obs::SpanRecord span;
  span.name = name;
  span.node = net::kClientNode;
  span.query_id = query_id;
  span.span_id = client_spans_.next_span_id(net::kClientNode);
  span.parent_span = parent_span;
  span.start = start;
  // Client spans are point events (admit / receipt); durations live in the
  // node-side spans, so 0 here keeps sim runs byte-stable.
  span.duration_ns = 0;
  span.value = value;
  const std::uint64_t span_id = span.span_id;
  client_spans_.add(std::move(span));
  return span_id;
}

QueryOutcome Client::wait_sim(const QueryTicket& ticket) {
  // Drains every in-flight event (this ticket's and any other admitted
  // query's); replies land in the table and later waits find them
  // immediately. run_until_idle also advances the external clock to the
  // drained horizon, so future injections start there.
  sim_->run_until_idle();
  return finish_outcome(ticket, take_reply(ticket.id));
}

QueryOutcome Client::wait_threaded(const QueryTicket& ticket) {
  std::optional<Reply> reply;
  for (;;) {
    {
      // Explicit re-check after a bounded wait (not a predicate lambda) so
      // the thread-safety analysis can see replies_ accessed under the
      // lock; the outer loop absorbs spurious wakeups and timeouts.
      std::unique_lock lock(reply_mu_);
      auto it = replies_.find(ticket.id);
      if (it == replies_.end()) {
        reply_cv_.wait_for(lock, std::chrono::milliseconds(2));
        it = replies_.find(ticket.id);
      }
      if (it != replies_.end()) {
        reply = std::move(it->second);
        replies_.erase(it);
        break;
      }
    }
    // No reply yet. If the whole cluster is quiescent the dataflow cannot
    // make further progress: the query stalled. (A reply may have raced in
    // between the two checks; take_reply in finish_outcome would still
    // miss it, so re-check under the lock first.)
    if (threaded_->idle()) {
      reply = take_reply(ticket.id);
      break;
    }
  }
  return finish_outcome(ticket, std::move(reply));
}

QueryOutcome Client::wait_socket(const QueryTicket& ticket) {
  // No cluster-wide idle signal exists across processes, so the stall
  // detector is a deadline: a reply missing past query_timeout means the
  // dataflow lost a message (node death, dropped frame) and will not
  // complete. finish_outcome then cancels cluster-side pending state.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              options_.runtime.socket.query_timeout));
  std::optional<Reply> reply;
  {
    std::unique_lock lock(reply_mu_);
    for (;;) {
      auto it = replies_.find(ticket.id);
      if (it != replies_.end()) {
        reply = std::move(it->second);
        replies_.erase(it);
        break;
      }
      if (reply_cv_.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        // One final re-check: the reply may have raced the timeout.
        it = replies_.find(ticket.id);
        if (it != replies_.end()) {
          reply = std::move(it->second);
          replies_.erase(it);
        }
        break;
      }
    }
  }
  return finish_outcome(ticket, std::move(reply));
}

QueryOutcome Client::wait(const QueryTicket& ticket) {
  if (sim_) return wait_sim(ticket);
  if (threaded_) return wait_threaded(ticket);
  return wait_socket(ticket);
}

QueryOutcome Client::query(const seq::Sequence& query, QueryParams params) {
  return wait(submit(query, std::move(params)));
}

std::vector<QueryOutcome> Client::query_batch(
    const std::vector<seq::Sequence>& queries, QueryParams params) {
  std::vector<QueryTicket> tickets;
  tickets.reserve(queries.size());
  for (const auto& query : queries) tickets.push_back(submit(query, params));
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(tickets.size());
  for (const auto& ticket : tickets) outcomes.push_back(wait(ticket));
  return outcomes;
}

// --- observability ----------------------------------------------------------

obs::MetricsSnapshot Client::metrics() const {
  obs::MetricsSnapshot snap = registry_.snapshot();
  const auto add_counter = [&snap](const char* name, std::uint64_t value) {
    snap.counters.push_back({name, value});
  };

  // NodeCounters stay plain per-node structs (no atomics on the node hot
  // paths); fold their cluster totals in as synthetic node.* entries.
  const NodeCounters totals = total_counters();
  add_counter("node.blocks_inserted", totals.blocks_inserted);
  add_counter("node.sequences_stored", totals.sequences_stored);
  add_counter("node.blocks_restored", totals.blocks_restored);
  add_counter("node.sequences_restored", totals.sequences_restored);
  add_counter("node.nn_searches", totals.nn_searches);
  add_counter("node.nn_cache_hits", totals.nn_cache_hits);
  add_counter("node.nn_cache_misses", totals.nn_cache_misses);
  add_counter("node.seeds_emitted", totals.seeds_emitted);
  add_counter("node.fetches_served", totals.fetches_served);
  add_counter("node.group_queries", totals.group_queries);
  add_counter("node.queries_coordinated", totals.queries_coordinated);
  add_counter("node.anchors_extended", totals.anchors_extended);
  add_counter("node.gapped_extensions", totals.gapped_extensions);
  add_counter("node.fetch_ranges_coalesced", totals.fetch_ranges_coalesced);
  add_counter("node.anchors_pruned", totals.anchors_pruned);

  const net::NetworkStats traffic = transport_->stats();
  add_counter("net.messages", traffic.messages);
  add_counter("net.bytes", traffic.bytes);
  if (sim_ != nullptr) {
    add_counter("net.dropped_messages", sim_->dropped_messages());
  } else if (threaded_ != nullptr) {
    add_counter("net.dropped_messages", threaded_->dropped_messages());
    add_counter("net.handler_errors", threaded_->handler_errors().size());
    // Node-side rejected frames already flow through the registry's
    // net.decode_errors counter; fold in the transport backstop (frames a
    // non-node actor failed to decode) so the exported total covers every
    // layer.
    for (auto& counter : snap.counters) {
      if (counter.name == "net.decode_errors") {
        counter.value += threaded_->decode_errors();
      }
    }
  } else {
    // Socket mode: these cover only this coordinator process — each
    // daemon's transport keeps its own (the nodes are remote, so the
    // registry holds no node.*/net.decode_errors entries to fold into).
    add_counter("net.dropped_messages", socket_->dropped_messages());
    add_counter("net.handler_errors", socket_->handler_errors().size());
    add_counter("net.decode_errors", socket_->decode_errors());
    add_counter("net.frame_errors", socket_->frame_errors());
    add_counter("net.reconnects", socket_->reconnects());
    add_counter("net.heartbeats_missed", socket_->heartbeats_missed());
  }

  std::uint64_t buffered = client_spans_.size();
  std::uint64_t dropped = client_spans_.dropped();
  for (const auto& node : nodes_) {
    buffered += node->span_buffer().size();
    dropped += node->span_buffer().dropped();
  }
  snap.gauges.push_back(
      {"trace.spans_buffered", static_cast<std::int64_t>(buffered)});
  add_counter("trace.spans_dropped", dropped);

  // Window-arena residency across the cluster: how many arena bytes are
  // mapped in memory right now, how many the packed rows occupy in total,
  // and the block stores' fault/eviction traffic (all zero for all-resident
  // unpacked deployments — the entries are always present so dashboards
  // and the schema check see a stable key set).
  std::uint64_t resident = 0;
  std::uint64_t packed = 0;
  vpt::BlockStoreStats store_totals;
  for (const auto& node : nodes_) {
    const auto arena = node->arena_stats();
    resident += arena.resident_bytes;
    packed += arena.packed_bytes;
    store_totals.hits += arena.store.hits;
    store_totals.misses += arena.store.misses;
    store_totals.evictions += arena.store.evictions;
    store_totals.faults += arena.store.faults;
  }
  snap.gauges.push_back(
      {"arena.resident_bytes", static_cast<std::int64_t>(resident)});
  snap.gauges.push_back(
      {"arena.packed_bytes", static_cast<std::int64_t>(packed)});
  add_counter("blockstore.hits", store_totals.hits);
  add_counter("blockstore.misses", store_totals.misses);
  add_counter("blockstore.evictions", store_totals.evictions);
  add_counter("blockstore.faults", store_totals.faults);

  snap.sort();
  return snap;
}

obs::QueryTrace Client::collect_trace(std::uint64_t query_id) {
  require(indexed_, "Client::collect_trace before index()/load_index()");
  for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
    if (transport_down(id)) continue;
    net::Message collect;
    collect.from = net::kClientNode;
    collect.to = id;
    collect.type = kCollectTrace;
    collect.request_id = query_id;
    transport_->send(std::move(collect));
  }
  settle();

  obs::QueryTrace trace;
  trace.query_id = query_id;
  {
    std::lock_guard lock(trace_mu_);
    auto it = trace_reports_.find(query_id);
    if (it != trace_reports_.end()) {
      trace.spans = std::move(it->second);
      trace_reports_.erase(it);
    }
  }
  for (auto& span : client_spans_.take(query_id)) {
    trace.spans.push_back(std::move(span));
  }
  trace.sort();
  return trace;
}

// --- telemetry --------------------------------------------------------------

const cluster::Topology& Client::topology() const {
  require(topology_ != nullptr, "Client::topology before index()");
  return *topology_;
}

std::vector<std::uint64_t> Client::block_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(nodes_.size());
  for (const auto& node : nodes_) counts.push_back(node->block_count());
  return counts;
}

NodeCounters Client::total_counters() const {
  NodeCounters total;
  for (const auto& node : nodes_) {
    const NodeCounters& c = node->counters();
    total.blocks_inserted += c.blocks_inserted;
    total.sequences_stored += c.sequences_stored;
    total.blocks_restored += c.blocks_restored;
    total.sequences_restored += c.sequences_restored;
    total.nn_searches += c.nn_searches;
    total.nn_cache_hits += c.nn_cache_hits;
    total.nn_cache_misses += c.nn_cache_misses;
    total.seeds_emitted += c.seeds_emitted;
    total.fetches_served += c.fetches_served;
    total.group_queries += c.group_queries;
    total.queries_coordinated += c.queries_coordinated;
    total.anchors_extended += c.anchors_extended;
    total.gapped_extensions += c.gapped_extensions;
    total.fetch_ranges_coalesced += c.fetch_ranges_coalesced;
    total.anchors_pruned += c.anchors_pruned;
  }
  return total;
}

net::ThreadTransport& Client::thread_transport() {
  require(threaded_ != nullptr,
          "Client::thread_transport: not in TransportMode::kThreaded");
  return *threaded_;
}

net::SocketTransport& Client::socket_transport() {
  require(socket_ != nullptr,
          "Client::socket_transport: not in TransportMode::kSocket");
  return *socket_;
}

StorageNode& Client::node(net::NodeId id) {
  require(id < nodes_.size(), "Client::node: id out of range");
  return *nodes_[id];
}

const StorageNode& Client::node(net::NodeId id) const {
  require(id < nodes_.size(), "Client::node: id out of range");
  return *nodes_[id];
}

const vpt::VpPrefixTree& Client::prefix_tree() const {
  require(prefix_tree_ != nullptr, "Client::prefix_tree before index()");
  return *prefix_tree_;
}

void Client::broadcast_membership(net::NodeId changed, bool down) {
  SetNodeDownPayload payload;
  payload.node = changed;
  payload.down = down;
  const auto bytes = encode_payload(payload);
  for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
    // On heal the changed node hears it too: a daemon that stayed alive
    // ignores the same-generation re-init, so this message is what clears
    // its own membership view. On fail its traffic is dropped anyway.
    if ((down && id == changed) || transport_down(id)) continue;
    net::Message message;
    message.from = net::kClientNode;
    message.to = id;
    message.type = kSetNodeDown;
    message.request_id = 0;
    message.payload = bytes;
    transport_->send(std::move(message));
  }
}

void Client::fail_node(net::NodeId id) {
  require(topology_ != nullptr && id < topology_->total_nodes(),
          "Client::fail_node: id out of range");
  fault_injector().fail_node(id);
  for (auto& node : nodes_) node->set_down(id, true);
  if (socket_) {
    // Remote daemons update their membership view by message; settle so
    // the exclusion is in force before the caller's next query.
    broadcast_membership(id, /*down=*/true);
    settle();
  }
}

void Client::heal_node(net::NodeId id) {
  require(topology_ != nullptr && id < topology_->total_nodes(),
          "Client::heal_node: id out of range");
  fault_injector().heal_node(id);
  for (auto& node : nodes_) node->set_down(id, false);
  if (socket_ && indexed_) {
    // Re-initialize the healed node at the original generation: a daemon
    // that stayed alive through the (injected) outage ignores it and
    // keeps its shard; a restarted daemon rebuilds empty and rejoins.
    // FIFO per connection orders the init before everything below.
    net::Message init;
    init.from = net::kClientNode;
    init.to = id;
    init.type = kNodeInit;
    init.request_id = 0;
    init.payload = encode_payload(make_node_init());
    transport_->send(std::move(init));
    broadcast_membership(id, /*down=*/false);
  }

  // Scrub the healed node: deliver every cancel that was deferred while
  // its traffic was being dropped, so no aborted query's pending state
  // survives the outage.
  std::vector<std::uint64_t> flush;
  {
    std::lock_guard lock(cancel_mu_);
    auto it = deferred_cancels_.find(id);
    if (it != deferred_cancels_.end()) {
      flush = std::move(it->second);
      deferred_cancels_.erase(it);
    }
  }
  for (std::uint64_t query_id : flush) {
    net::Message cancel;
    cancel.from = net::kClientNode;
    cancel.to = id;
    cancel.type = kCancelQuery;
    cancel.request_id = query_id;
    transport_->send(std::move(cancel));
  }
  if (!flush.empty() || socket_) settle();
}

// --- persistence ------------------------------------------------------------

void Client::save_index(const std::string& path) const {
  require(indexed_, "Client::save_index before index()");
  require(socket_ == nullptr,
          "Client::save_index: not available in TransportMode::kSocket "
          "(the shards live in the daemon processes)");
  CodecWriter writer;
  writer.str("mendel-index-v3");
  writer.u8(static_cast<std::uint8_t>(alphabet_));
  writer.u64(database_residues_);
  writer.u32(options_.topology.num_groups);
  writer.u32(options_.topology.nodes_per_group);
  // Nodes added after the initial dense layout, in id order.
  const std::uint32_t dense =
      options_.topology.num_groups * options_.topology.nodes_per_group;
  writer.u32(topology_->total_nodes() - dense);
  for (net::NodeId id = dense; id < topology_->total_nodes(); ++id) {
    writer.u32(topology_->address(id).group);
  }
  prefix_tree_->encode(writer);
  // v3: one length-framed section per group (ascending group id), each
  // holding its member nodes' shards with packed arena rows dumped
  // verbatim. The framing makes group sections independently skippable,
  // so incremental tooling can rewrite one group without decoding the
  // whole cluster.
  writer.u32(options_.topology.num_groups);
  for (std::uint32_t group = 0; group < options_.topology.num_groups;
       ++group) {
    writer.u32(group);
    CodecWriter section;
    std::vector<net::NodeId> members;
    for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
      if (topology_->address(id).group == group) members.push_back(id);
    }
    section.u32(static_cast<std::uint32_t>(members.size()));
    for (net::NodeId id : members) {
      section.u32(id);
      nodes_[id]->save(section);
    }
    writer.bytes(section.data());
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("save_index: cannot open " + path);
  out.write(reinterpret_cast<const char*>(writer.data().data()),
            static_cast<std::streamsize>(writer.size()));
  if (!out) throw IoError("save_index: write failed for " + path);
}

void Client::load_index(const std::string& path) {
  require(!indexed_, "Client::load_index: already indexed");
  require(socket_ == nullptr,
          "Client::load_index: not available in TransportMode::kSocket "
          "(daemons build their shards from the indexing stream)");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("load_index: cannot open " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  CodecReader reader(bytes);

  const std::string magic = reader.str();
  require(magic == "mendel-index-v3",
          "load_index: unsupported snapshot magic '" + magic +
              "' (re-index and save with this version)");
  const auto alphabet = static_cast<seq::Alphabet>(reader.u8());
  database_residues_ = reader.u64();
  // Adopt the snapshot's topology: an index is only meaningful on the
  // cluster shape it was built for.
  options_.topology.num_groups = reader.u32();
  options_.topology.nodes_per_group = reader.u32();
  const std::uint32_t extra_nodes = reader.u32();
  std::vector<std::uint32_t> extra_groups;
  for (std::uint32_t i = 0; i < extra_nodes; ++i) {
    extra_groups.push_back(reader.u32());
  }

  topology_ = std::make_unique<cluster::Topology>(options_.topology);
  for (std::uint32_t group : extra_groups) topology_->add_node(group);
  distance_ = std::make_unique<score::DistanceMatrix>(
      score::default_distance(alphabet));
  prefix_tree_ = std::make_unique<vpt::VpPrefixTree>(
      vpt::VpPrefixTree::decode(reader, distance_.get()));
  topology_->bind_prefixes(prefix_tree_->leaf_prefixes());

  spawn_nodes(alphabet);
  const std::uint32_t group_count = reader.u32();
  require(group_count == options_.topology.num_groups,
          "load_index: group section count mismatch");
  std::size_t shards = 0;
  for (std::uint32_t i = 0; i < group_count; ++i) {
    const std::uint32_t group = reader.u32();
    require(group == i, "load_index: group sections out of order");
    const auto section = reader.bytes();
    CodecReader sub(section);
    const std::uint32_t members = sub.u32();
    for (std::uint32_t m = 0; m < members; ++m) {
      const std::uint32_t id = sub.u32();
      require(id < nodes_.size(), "load_index: shard for unknown node " +
                                      std::to_string(id));
      require(topology_->address(id).group == group,
              "load_index: node " + std::to_string(id) +
                  " filed under the wrong group section");
      nodes_[id]->load(sub);
      ++shards;
    }
    require(sub.done(), "load_index: trailing bytes in group section " +
                            std::to_string(group));
  }
  require(shards == nodes_.size(), "load_index: node shard count mismatch");
  for (auto& node : nodes_) {
    node->set_database_residues(database_residues_);
  }
  // Recover the id watermark from the restored shards so add_sequences()
  // keeps allocating fresh ids after a load.
  seq::SequenceId watermark = 0;
  for (auto& node : nodes_) {
    watermark = std::max(watermark, node->max_sequence_id_plus_one());
  }
  next_sequence_id_ = watermark;
  indexed_ = true;
  publish_load_gauges();
}

}  // namespace mendel::core
