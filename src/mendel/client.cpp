#include "src/mendel/client.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "src/cluster/telemetry.h"
#include "src/common/error.h"
#include "src/hash/sha1.h"
#include "src/mendel/protocol.h"
#include "src/scoring/matrix.h"

namespace mendel::core {

std::size_t parse_arena_budget(std::string_view text, std::size_t fallback) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  // from_chars takes no sign or leading space for an unsigned type and
  // reports overflow, so "-1" and oversized counts fall back here.
  const auto [rest, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc()) return fallback;
  std::size_t scale = 1;
  if (rest != end) {
    if (end - rest != 1) return fallback;  // "4mb", "4m junk"
    switch (*rest) {
      case 'k': case 'K': scale = std::size_t{1} << 10; break;
      case 'm': case 'M': scale = std::size_t{1} << 20; break;
      case 'g': case 'G': scale = std::size_t{1} << 30; break;
      default: return fallback;
    }
  }
  if (value > std::numeric_limits<std::size_t>::max() / scale) return fallback;
  return value * scale;
}

Client::Client(ClientOptions options)
    : options_(std::move(options)) {
  if (const char* env = std::getenv("MENDEL_ARENA_BUDGET")) {
    options_.runtime.node.arena_resident_budget =
        parse_arena_budget(env, options_.runtime.node.arena_resident_budget);
  }
  options_.runtime.socket.endpoints =
      net::endpoints_from_env(std::move(options_.runtime.socket.endpoints));
  net::TransportConfig transport_config;
  transport_config.mode = options_.runtime.transport_mode;
  transport_config.cost = options_.cost;
  transport_config.schedule_seed = options_.runtime.schedule_seed;
  transport_config.socket = options_.runtime.socket;
  transport_ = net::make_transport(transport_config);
  c_submitted_ = &registry_.counter("client.queries_submitted");
  c_completed_ = &registry_.counter("client.queries_completed");
  c_stalled_ = &registry_.counter("client.queries_stalled");
  h_turnaround_ = &registry_.histogram("client.turnaround_seconds");
  client_actor_ = std::make_unique<net::FunctionActor>(
      [this](const net::Message& message, net::Context& ctx) {
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
  // Dispatch threads reference the storage nodes and the client actor;
  // stop them before those members go away.
  transport_->stop();
}

StorageNodeConfig Client::node_config() {
  StorageNodeConfig config;
  config.topology = topology_.get();
  config.prefix_tree = prefix_tree_.get();
  config.distance = distance_.get();
  config.metrics = &registry_;
  config.alphabet = alphabet_;
  config.bucket_capacity = options_.bucket_capacity;
  config.database_residues = database_residues_;
  config.node = options_.runtime.node;
  return config;
}

void Client::spawn_nodes(seq::Alphabet alphabet) {
  alphabet_ = alphabet;
  // distance_ is allocated by the caller (index/load_index) BEFORE the
  // prefix tree captures its address; it must never be reallocated here.
  require(distance_ != nullptr, "spawn_nodes: distance matrix not set");

  // The one place the mode matters: under kSocket the storage nodes live
  // in mendel-node daemons, everywhere else in this process. Past this
  // point in-process nodes are nodes_ and remote ones are the ids from
  // nodes_.size() up.
  if (options_.runtime.transport_mode == TransportMode::kSocket) {
    require(options_.runtime.socket.endpoints.size() >=
                topology_->total_nodes(),
            "spawn_nodes: socket mode needs an endpoint per node "
            "(RuntimeOptions::socket.endpoints or MENDEL_ENDPOINTS)");
  } else {
    nodes_.reserve(topology_->total_nodes());
    for (net::NodeId id = 0; id < topology_->total_nodes(); ++id) {
      nodes_.push_back(std::make_unique<StorageNode>(id, node_config()));
      transport_->register_actor(id, nodes_.back().get());
    }
  }
  transport_->start();
  // Remote nodes are built by message; settle so indexing only starts
  // against fully-constructed nodes.
  const auto first_remote = static_cast<net::NodeId>(nodes_.size());
  if (first_remote < topology_->total_nodes()) {
    broadcast(kNodeInit, 0, encode_payload(make_node_init()), first_remote);
    settle();
  }
}

void Client::settle() { transport_->settle(); }

void Client::broadcast(std::uint32_t type, std::uint64_t request_id,
                       const std::vector<std::uint8_t>& payload,
                       net::NodeId first, net::NodeId skip) {
  for (net::NodeId id = first; id < topology_->total_nodes(); ++id) {
    if (id != skip && !transport_down(id)) send(id, type, request_id, payload);
  }
}

void Client::send(net::NodeId to, std::uint32_t type,
                  std::uint64_t request_id,
                  std::vector<std::uint8_t> payload) {
  transport_->send({.from = net::kClientNode,
                    .to = to,
                    .type = type,
                    .request_id = request_id,
                    .payload = std::move(payload)});
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

std::vector<std::uint8_t> Client::residues_payload() const {
  SetResiduesPayload payload;
  payload.residues = database_residues_;
  return encode_payload(payload);
}

void Client::propagate_residues() {
  // By message, in-process nodes too: their dispatch threads may be
  // serving other queries, so nothing writes node state from outside.
  broadcast(kSetResidues, 0, residues_payload());
  settle();
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
  require(group < options_.topology.num_groups,
          "Client::add_node: group out of range");
  // Register before touching the topology: the live transports pin their
  // actor set at start() and reject the newcomer, leaving nothing changed.
  const net::NodeId id = topology_->total_nodes();
  auto node = std::make_unique<StorageNode>(id, node_config());
  transport_->register_actor(id, node.get());
  nodes_.push_back(std::move(node));
  topology_->add_node(group);

  // Every pre-existing node re-evaluates ownership; blocks and sequences
  // the newcomer now owns flow to it (consistent hashing moves only the
  // remapped slice).
  for (net::NodeId existing = 0; existing < id; ++existing) {
    send(existing, kRebalance);
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
  ticket.injected_at = transport_->now();

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
  c_submitted_->add();

  send(entry, kQueryRequest, query_id, encode_payload(request));
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
    send(id, kCancelQuery, query_id);
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
    // report the incomplete outcome instead of hanging or throwing. The
    // settle round is bounded even while other queries keep the cluster
    // busy; a reply that raced the deadline is dropped with the query.
    outcome.completed = false;
    broadcast_cancel(ticket.id);
    settle();
    take_reply(ticket.id);
    outcome.turnaround = transport_->now() - ticket.injected_at;
    // No reply means no client.reply span consumed the submit-span link.
    std::lock_guard lock(trace_mu_);
    submit_spans_.erase(ticket.id);
  }
  // Exactly this query's traffic (the transport tagged every message with
  // this request_id into the bucket opened at submit). The stalled branch
  // above runs first, so the abort's cancel broadcast is included.
  outcome.traffic = transport_->take_query_stats(ticket.id);
  h_turnaround_->record_seconds(outcome.turnaround);
  (outcome.completed ? c_completed_ : c_stalled_)->add();
  return outcome;
}

void Client::publish_load_gauges() {
  // Socket mode hosts no local nodes, so there is no placement to report
  // (nodes_ is empty; the daemons see their own shards only).
  if (nodes_.empty()) return;
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

QueryOutcome Client::wait(const QueryTicket& ticket) {
  // One loop for every transport. idle() means nothing runs unless this
  // thread settles — the simulator, which drains its whole event queue
  // here, or a drained threaded runtime — so after that one settle a
  // missing reply is a stall. Busy clusters and sockets, which never
  // report idle, fall back on the per-query deadline.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.runtime.query_timeout));
  std::optional<Reply> reply;
  for (;;) {
    if (transport_->idle()) {
      settle();
      reply = take_reply(ticket.id);
      break;
    }
    {
      // Explicit re-check after a bounded wait (not a predicate lambda) so
      // the thread-safety analysis sees replies_ accessed under the lock.
      // The slice bounds how stale the idle() reading gets.
      std::unique_lock lock(reply_mu_);
      auto it = replies_.find(ticket.id);
      if (it == replies_.end()) {
        reply_cv_.wait_until(
            lock, std::min(deadline, std::chrono::steady_clock::now() +
                                         std::chrono::milliseconds(2)));
        it = replies_.find(ticket.id);
      }
      if (it != replies_.end()) {
        reply = std::move(it->second);
        replies_.erase(it);
        break;
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
  }
  return finish_outcome(ticket, std::move(reply));
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
  const auto add_node_counter = [&](const char* name,
                                    std::uint64_t NodeCounters::*field) {
    std::uint64_t total = 0;
    for (const auto& node : nodes_) total += node->counters().*field;
    add_counter(name, total);
  };
  add_node_counter("node.blocks_inserted", &NodeCounters::blocks_inserted);
  add_node_counter("node.sequences_stored", &NodeCounters::sequences_stored);
  add_node_counter("node.blocks_restored", &NodeCounters::blocks_restored);
  add_node_counter("node.sequences_restored",
                   &NodeCounters::sequences_restored);
  add_node_counter("node.nn_searches", &NodeCounters::nn_searches);
  add_node_counter("node.nn_cache_hits", &NodeCounters::nn_cache_hits);
  add_node_counter("node.nn_cache_misses", &NodeCounters::nn_cache_misses);
  add_node_counter("node.seeds_emitted", &NodeCounters::seeds_emitted);
  add_node_counter("node.fetches_served", &NodeCounters::fetches_served);
  add_node_counter("node.group_queries", &NodeCounters::group_queries);
  add_node_counter("node.queries_coordinated",
                   &NodeCounters::queries_coordinated);
  add_node_counter("node.anchors_extended", &NodeCounters::anchors_extended);
  add_node_counter("node.gapped_extensions",
                   &NodeCounters::gapped_extensions);
  add_node_counter("node.fetch_ranges_coalesced",
                   &NodeCounters::fetch_ranges_coalesced);
  add_node_counter("node.anchors_pruned", &NodeCounters::anchors_pruned);

  const net::NetworkStats traffic = transport_->stats();
  add_counter("net.messages", traffic.messages);
  add_counter("net.bytes", traffic.bytes);
  // The same net.* keys in every mode: zero where a transport has no such
  // mechanism. In socket mode these cover this coordinator process only.
  const net::TransportHealth health = transport_->health();
  add_counter("net.dropped_messages", health.dropped_messages);
  add_counter("net.handler_errors", health.handler_errors);
  add_counter("net.frame_errors", health.frame_errors);
  add_counter("net.reconnects", health.reconnects);
  add_counter("net.heartbeats_missed", health.heartbeats_missed);
  // In-process nodes count the frames they reject in the registry's
  // net.decode_errors; fold the transport's backstop into that total.
  const auto decode = std::find_if(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& counter) { return counter.name == "net.decode_errors"; });
  if (decode != snap.counters.end()) {
    decode->value += health.decode_errors;
  } else {
    add_counter("net.decode_errors", health.decode_errors);
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
  broadcast(kCollectTrace, query_id, {});
  // The round files every kTraceReport that answered the broadcast.
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
  // On heal the changed node hears it too; on fail its traffic is dropped
  // anyway.
  broadcast(kSetNodeDown, 0, encode_payload(payload), 0,
            down ? changed : net::kClientNode);
}

void Client::fail_node(net::NodeId id) {
  require(topology_ != nullptr && id < topology_->total_nodes(),
          "Client::fail_node: id out of range");
  fault_injector().fail_node(id);
  // Every node updates its membership view by message; settle so the
  // exclusion is in force before the caller's next query.
  broadcast_membership(id, /*down=*/true);
  settle();
}

void Client::heal_node(net::NodeId id) {
  require(topology_ != nullptr && id < topology_->total_nodes(),
          "Client::heal_node: id out of range");
  fault_injector().heal_node(id);
  if (indexed_ && id >= nodes_.size()) {
    // Re-initialize a healed remote node at the original generation: a
    // daemon that stayed alive through the (injected) outage ignores it
    // and keeps its shard; a restarted daemon rebuilds empty and rejoins.
    // FIFO per connection orders the init before everything below.
    send(id, kNodeInit, 0, encode_payload(make_node_init()));
  }
  // The node missed every update while its traffic was dropped: resync
  // its residue total and its view of every other node.
  send(id, kSetResidues, 0, residues_payload());
  for (net::NodeId other = 0; other < topology_->total_nodes(); ++other) {
    if (other == id) continue;
    SetNodeDownPayload view;
    view.node = other;
    view.down = transport_down(other);
    send(id, kSetNodeDown, 0, encode_payload(view));
  }
  broadcast_membership(id, /*down=*/false);

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
  for (std::uint64_t query_id : flush) send(id, kCancelQuery, query_id);
  settle();
}

// --- persistence ------------------------------------------------------------

void Client::save_index(const std::string& path) const {
  require(indexed_, "Client::save_index before index()");
  require(nodes_.size() == topology_->total_nodes(),
          "Client::save_index: not available in TransportMode::kSocket "
          "(the shards live in the daemon processes)");
  Snapshot snapshot;
  snapshot.alphabet = alphabet_;
  snapshot.database_residues = database_residues_;
  snapshot.num_groups = options_.topology.num_groups;
  snapshot.nodes_per_group = options_.topology.nodes_per_group;
  // Nodes added after the initial dense layout, in id order.
  for (net::NodeId id = snapshot.num_groups * snapshot.nodes_per_group;
       id < topology_->total_nodes(); ++id) {
    snapshot.extra_groups.push_back(topology_->address(id).group);
  }
  snapshot.prefix_tree = prefix_tree_.get();
  for (const auto& node : nodes_) snapshot.shards.push_back(node->save());
  const std::vector<std::uint8_t> bytes = write_snapshot(snapshot);

  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("save_index: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw IoError("save_index: write failed for " + path);
}

void Client::load_index(const std::string& path) {
  require(!indexed_, "Client::load_index: already indexed");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("load_index: cannot open " + path);
  Snapshot snapshot = read_snapshot(
      {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()});

  database_residues_ = snapshot.database_residues;
  // Adopt the snapshot's topology: an index is only meaningful on the
  // cluster shape it was built for.
  options_.topology.num_groups = snapshot.num_groups;
  options_.topology.nodes_per_group = snapshot.nodes_per_group;
  topology_ = std::make_unique<cluster::Topology>(options_.topology);
  for (std::uint32_t group : snapshot.extra_groups) topology_->add_node(group);
  distance_ = std::move(snapshot.distance);
  prefix_tree_ = std::move(snapshot.tree);
  topology_->bind_prefixes(prefix_tree_->leaf_prefixes());

  spawn_nodes(snapshot.alphabet);
  require(nodes_.size() == topology_->total_nodes(),
          "Client::load_index: not available in TransportMode::kSocket "
          "(daemons build their shards from the indexing stream)");
  require(snapshot.shards.size() == nodes_.size(),
          "load_index: node shard count mismatch");
  for (const SnapshotShard& shard : snapshot.shards) {
    require(shard.id < nodes_.size(),
            "load_index: shard for unknown node " + std::to_string(shard.id));
    require(topology_->address(shard.id).group == shard.group,
            "load_index: node " + std::to_string(shard.id) +
                " filed under the wrong group section");
    nodes_[shard.id]->load(shard);
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
