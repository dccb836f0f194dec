// Socket-backed transport: real length-prefixed frames between processes.
//
// The multi-process deployment runtime. Each participating process owns one
// SocketTransport hosting that process's local actors (a mendel-node daemon
// hosts one or more StorageNodes; the coordinator process hosts the client
// actor). A static endpoint table — one endpoint string per NodeId, TCP
// "host:port" or Unix-domain "unix:/path" — maps every storage node to the
// process serving it; several node ids may share one endpoint (one daemon
// hosting several nodes). Discovery is deliberately static for now: ROADMAP
// item 1 starts with a fixed endpoint list, liveness comes from heartbeats.
//
// Wiring model:
//   * start() binds + listens on the local node ids' endpoints and eagerly
//     dials every remote endpoint (retrying until `connect_timeout`).
//   * Every outbound connection opens with a kHello frame announcing the
//     dialing process's local actor ids, so the accepting side can route
//     replies — in particular to the client actor, which has no endpoint
//     of its own — back over the same connection.
//   * send() is thread-safe: local destinations enqueue into the shared
//     LocalRuntime (the same mailboxes, dispatch threads and handler-error
//     capture as ThreadTransport); remote destinations are framed and
//     written under a per-connection mutex. A dead connection is redialed
//     with exponential backoff; messages that cannot be delivered are
//     dropped and counted in the shared fault table, mirroring the other
//     transports' fault semantics (Mendel's dataflows already tolerate
//     loss via the client's stall/cancel machinery). Traffic is counted in
//     the shared TrafficLedger, so this class keeps only the remote edge.
//   * With heartbeat_interval > 0 a monitor thread pings every remote
//     peer; a peer whose traffic stays silent past heartbeat_timeout is
//     reported node_down() — the same membership view the Client's
//     cancel/heal machinery consumes for simulated failures.
//   * settle() runs a settle round (LocalRuntime::settle) through every
//     alive node, local or remote. Each connection is FIFO and each
//     mailbox answers in order, so the round proves every earlier message
//     was handled. A daemon that dies mid-round cannot hang it: the round
//     gives up after settle_timeout.
//
// What this transport does NOT give: a quiescence signal (idle() is always
// false, since in-flight frames and other processes' mailboxes are
// invisible here, so the Client detects stalls by its per-query deadline)
// and virtual time (now() and Context::now() are wall time).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/net/fault.h"
#include "src/net/frame.h"
#include "src/net/ledger.h"
#include "src/net/local_runtime.h"
#include "src/net/message.h"

namespace mendel::net {

// Socket deployment settings, grouped so RuntimeOptions can carry them as
// one unit and the CLI / MENDEL_ENDPOINTS env can populate them uniformly.
struct SocketOptions {
  // endpoints[id] is the endpoint string of NodeId id: "host:port" (TCP)
  // or "unix:/path" (Unix-domain). Ids registered locally listen on their
  // endpoint; all other listed ids are dialed as remote peers.
  std::vector<std::string> endpoints;
  // listen(2) backlog for the accept sockets.
  int accept_backlog = 16;
  // Heartbeat ping period in seconds; 0 (default) disables the monitor
  // thread entirely.
  double heartbeat_interval = 0.0;
  // A remote peer silent for longer than this (no pong, no traffic) is
  // reported node_down().
  double heartbeat_timeout = 2.0;
  // Exponential backoff between redial attempts after a connection died.
  double reconnect_backoff = 0.05;
  double reconnect_backoff_max = 1.0;
  // Total per-peer dial budget during start() (daemons may come up in any
  // order; start retries within this window before giving up and leaving
  // the peer to the backoff/heartbeat machinery).
  double connect_timeout = 10.0;
  // Bound on one settle() round: how long it waits for settle acks before
  // giving up on a daemon that died or lost the probe.
  double settle_timeout = 10.0;
  // Frame-length acceptance bound (see frame.h).
  std::size_t max_frame_bytes = kMaxFrameBytes;
};

// Splits a comma-separated endpoint list ("unix:/tmp/a,host:9001,...").
// Empty input yields an empty list; whitespace around items is trimmed.
std::vector<std::string> parse_endpoint_list(std::string_view csv);

// Parses a daemon's hosted node ids: a comma-separated list of decimal ids
// and inclusive lo-hi ranges ("0-4,10"), each id below `bound` (the
// endpoint count). Signs, ids at or past the bound, inverted ranges and
// repeated ids throw InvalidArgument before any range is expanded, so the
// result never holds more than `bound` ids. Empty items are skipped; a list
// with no id throws.
std::vector<NodeId> parse_node_ids(std::string_view csv, std::size_t bound);

// MENDEL_ENDPOINTS environment override: when set and non-empty, its
// parsed list replaces `fallback` (same pattern as MENDEL_ARENA_BUDGET).
std::vector<std::string> endpoints_from_env(
    std::vector<std::string> fallback);

class SocketTransport final : public Transport, public FaultInjector {
 public:
  explicit SocketTransport(SocketOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // All local actors must be registered before start(); a duplicate id
  // throws.
  void register_actor(NodeId id, Actor* actor) override {
    runtime_.add(id, actor);
  }

  // Binds the local listeners, dials every remote endpoint (retrying up to
  // connect_timeout per peer), and spawns the dispatch / accept / monitor
  // threads. Throws IoError when a local endpoint cannot be bound.
  void start() override;

  // Drains local mailboxes, closes every socket, joins every thread.
  // Idempotent; also run by the destructor.
  void stop() override;

  // See the header comment; a no-op before start().
  void settle() override;

  // Thread-safe. Local destinations enqueue; remote destinations frame and
  // write (redialing through backoff when the connection died). Messages
  // to failed/unreachable destinations are dropped and counted.
  void send(Message message) override;

  // Blocks until every local mailbox is empty and no handler is running.
  // Local quiescence only — in-flight frames on the wire or queued in
  // other processes are invisible here.
  void wait_local_idle() { runtime_.wait_idle(); }

  // Counts only THIS process's sends; remote processes' traffic is counted
  // in their own transports.
  NetworkStats stats() const override { return ledger_.totals(); }
  void begin_query_stats(std::uint64_t query_id) override {
    ledger_.begin(query_id);
  }
  NetworkStats take_query_stats(std::uint64_t query_id) override {
    return ledger_.take(query_id);
  }

  // --- fault injection (FaultInjector) ----------------------------------
  // fail_node drops this process's outbound traffic to the id (chaos
  // testing and the client's explicit fail path); node_down additionally
  // reports peers whose heartbeats expired, so the one membership view
  // covers injected and real failures. heal_node also gives the peer a
  // fresh liveness lease.
  FaultInjector* fault_injector() override { return this; }
  void heal_node(NodeId id) override;
  bool node_down(NodeId id) const override;

  // --- socket observability (exported as net.* counters) ----------------
  // Frames rejected at the framing layer (bad length prefix, unknown
  // kind, truncated body) plus local handlers that raised DecodeError.
  std::uint64_t decode_errors() const {
    return frame_errors() + runtime_.decode_errors();
  }
  // Framing-layer subset of decode_errors: connections dropped because
  // the byte stream itself was malformed.
  std::uint64_t frame_errors() const {
    return frame_errors_.load(std::memory_order_relaxed);
  }
  // Successful redials of a previously connected peer.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  // See LocalRuntime::handler_errors().
  std::vector<std::string> handler_errors() const {
    return runtime_.handler_errors();
  }
  // All of the above plus heartbeats_missed: peers declared down by the
  // heartbeat monitor (transition count).
  TransportHealth health() const override;

 private:
  // One live stream socket. The fd is fixed for the connection's lifetime
  // and closed only by the destructor, so whoever holds a reference may
  // shutdown(2) it without a lock: the number cannot be recycled under
  // them. Reader threads are owned by the transport (joined in stop()),
  // not by the connection.
  struct Conn {
    explicit Conn(int socket_fd) : fd(socket_fd) {}
    ~Conn();  // Not copyable or movable: write_mu pins it.

    const int fd;
    std::mutex write_mu;
    std::atomic<bool> open{true};
  };

  // One remote process, keyed by endpoint string (several node ids may map
  // here). Guarded by peers_mu_.
  struct Peer {
    std::string endpoint;
    std::shared_ptr<Conn> conn;  // null = not connected
    double next_dial = 0.0;      // monotonic gate for redial backoff
    double backoff = 0.0;
    double last_seen = 0.0;      // last inbound frame / successful dial
    bool ever_connected = false;
    bool hb_down = false;   // heartbeat monitor's verdict
    bool dialing = false;   // serializes concurrent dial attempts
  };

  void reader_loop(std::shared_ptr<Conn> conn);
  void accept_loop(int listen_fd);
  void monitor_loop();

  // Dials `peer` once (bounded single-attempt timeout), installs the
  // connection and sends the hello preamble on success. peers_mu_ must NOT
  // be held. Returns the connection or null.
  std::shared_ptr<Conn> dial_peer(Peer* peer);
  std::shared_ptr<Conn> connection_for(NodeId to);
  void adopt_reader(std::shared_ptr<Conn> conn);
  void on_frame(const std::shared_ptr<Conn>& conn, Frame frame);
  void close_conn(const std::shared_ptr<Conn>& conn);
  bool write_frame(const std::shared_ptr<Conn>& conn,
                   std::span<const std::uint8_t> bytes);

  SocketOptions options_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> running_{false};

  std::vector<int> listen_fds_;
  std::vector<std::thread> threads_;  // accept + monitor
  std::mutex reader_threads_mu_;
  std::vector<std::thread> reader_threads_
      MENDEL_GUARDED_BY(reader_threads_mu_);
  // Set once stop() has collected the readers; adopt_reader then closes
  // late connections instead of spawning unjoinable threads.
  bool readers_closed_ MENDEL_GUARDED_BY(reader_threads_mu_) = false;

  mutable std::mutex peers_mu_;
  std::vector<std::unique_ptr<Peer>> peers_ MENDEL_GUARDED_BY(peers_mu_);
  std::unordered_map<NodeId, Peer*> peer_of_id_ MENDEL_GUARDED_BY(peers_mu_);
  // Routes learned from kHello frames (ids with no endpoint of their own,
  // i.e. the client actor; also inbound daemon-daemon connections).
  std::unordered_map<NodeId, std::shared_ptr<Conn>> hello_routes_
      MENDEL_GUARDED_BY(peers_mu_);
  // Accepted connections, held until their reader exits (for stop()).
  std::vector<std::shared_ptr<Conn>> inbound_ MENDEL_GUARDED_BY(peers_mu_);

  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> heartbeats_missed_{0};
  std::atomic<std::uint64_t> ping_nonce_{0};

  TrafficLedger ledger_;
  // Last member: its dispatch threads send through this transport, so it
  // is destroyed (and its threads joined) before anything they touch.
  LocalRuntime runtime_{this};
};

}  // namespace mendel::net
