#include "src/net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <numeric>
#include <set>
#include <utility>

#include "src/common/error.h"
#include "src/common/stopwatch.h"

namespace mendel::net {

namespace {

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

struct ParsedEndpoint {
  bool unix_domain = false;
  std::string host;  // or socket path
  std::string port;
};

ParsedEndpoint parse_endpoint(const std::string& endpoint) {
  ParsedEndpoint out;
  if (endpoint.rfind("unix:", 0) == 0) {
    out.unix_domain = true;
    out.host = endpoint.substr(5);
    if (out.host.empty()) {
      throw InvalidArgument("endpoint '" + endpoint + "': empty socket path");
    }
    // sockaddr_un::sun_path is a fixed 108-byte field.
    if (out.host.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw InvalidArgument("endpoint '" + endpoint +
                            "': unix socket path too long");
    }
    return out;
  }
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    throw InvalidArgument("endpoint '" + endpoint +
                          "': expected host:port or unix:/path");
  }
  out.host = endpoint.substr(0, colon);
  out.port = endpoint.substr(colon + 1);
  return out;
}

void set_nodelay(int fd) {
  int one = 1;
  // Best effort: fails (harmlessly) on Unix-domain sockets.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool set_blocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

// A fresh stream socket for `endpoint` and the address to dial or bind it
// to. fd is -1 when the name does not resolve or socket(2) fails.
struct EndpointSocket {
  int fd = -1;
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
};

EndpointSocket open_endpoint(const ParsedEndpoint& parsed, bool passive) {
  EndpointSocket out;
  if (parsed.unix_domain) {
    auto* un = reinterpret_cast<sockaddr_un*>(&out.addr);
    un->sun_family = AF_UNIX;
    std::strncpy(un->sun_path, parsed.host.c_str(),
                 sizeof(un->sun_path) - 1);
    out.addr_len = sizeof(sockaddr_un);
    out.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    return out;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo* res = nullptr;
  if (::getaddrinfo(parsed.host.c_str(), parsed.port.c_str(), &hints,
                    &res) != 0 ||
      res == nullptr) {
    return out;
  }
  out.fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  std::memcpy(&out.addr, res->ai_addr, res->ai_addrlen);
  out.addr_len = static_cast<socklen_t>(res->ai_addrlen);
  ::freeaddrinfo(res);
  return out;
}

// Connects to `endpoint` with a bounded timeout. Returns -1 on failure.
int dial_fd(const std::string& endpoint, double timeout_seconds) {
  const EndpointSocket target =
      open_endpoint(parse_endpoint(endpoint), /*passive=*/false);
  const int fd = target.fd;
  if (fd < 0) return -1;

  // Nonblocking connect + poll: a blocking connect to a dead TCP peer can
  // hang for minutes, which would wedge a sending handler thread.
  if (!set_blocking(fd, false)) {
    ::close(fd);
    return -1;
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&target.addr),
                     target.addr_len);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms =
        timeout_seconds <= 0 ? 0
                             : static_cast<int>(timeout_seconds * 1000.0) + 1;
    rc = ::poll(&pfd, 1, timeout_ms);
    if (rc == 1) {
      int err = 0;
      socklen_t len = sizeof(err);
      rc = ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (rc == 0 && err != 0) rc = -1;
    } else {
      rc = -1;  // timeout or poll error
    }
  }
  if (rc != 0 || !set_blocking(fd, true)) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

int listen_fd_for(const std::string& endpoint, int backlog) {
  const ParsedEndpoint parsed = parse_endpoint(endpoint);
  const EndpointSocket local = open_endpoint(parsed, /*passive=*/true);
  const int fd = local.fd;
  if (fd < 0) throw IoError("cannot open a socket for " + endpoint);
  if (parsed.unix_domain) {
    // A previous daemon instance (or a SIGKILLed one) leaves the path
    // behind; rebinding over it is the restart path.
    ::unlink(parsed.host.c_str());
  } else {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  const char* failed = nullptr;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&local.addr),
             local.addr_len) != 0) {
    failed = "bind";
  } else if (::listen(fd, backlog) != 0) {
    failed = "listen";
  }
  if (failed != nullptr) {
    const int err = errno;
    ::close(fd);
    throw IoError(std::string(failed) + "() failed for " + endpoint + ": " +
                  std::strerror(err));
  }
  return fd;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the
    // process with SIGPIPE.
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::vector<std::string> parse_endpoint_list(std::string_view csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t end = csv.find(',', begin);
    if (end == std::string_view::npos) end = csv.size();
    std::string_view item = csv.substr(begin, end - begin);
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t')) {
      item.remove_prefix(1);
    }
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t')) {
      item.remove_suffix(1);
    }
    if (!item.empty()) out.emplace_back(item);
    if (end == csv.size()) break;
    begin = end + 1;
  }
  return out;
}

std::vector<NodeId> parse_node_ids(std::string_view csv, std::size_t bound) {
  const auto bad = [](std::string_view item, const std::string& why) {
    return InvalidArgument("--nodes: '" + std::string(item) + "' " + why);
  };
  // Digits only (no sign, no blank), and below the bound digit by digit so
  // a long literal cannot overflow.
  const auto id_of = [&](std::string_view item, std::string_view digits) {
    if (digits.empty()) throw bad(item, "is not a node id");
    std::size_t value = 0;
    for (const char c : digits) {
      if (c < '0' || c > '9') throw bad(item, "is not a node id");
      value = value * 10 + static_cast<std::size_t>(c - '0');
      if (value >= bound) {
        throw bad(item, "names an id past the " + std::to_string(bound) +
                            " endpoints");
      }
    }
    return static_cast<NodeId>(value);
  };
  std::vector<NodeId> ids;
  std::vector<bool> seen(bound, false);
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t end = csv.find(',', begin);
    if (end == std::string_view::npos) end = csv.size();
    const std::string_view item = csv.substr(begin, end - begin);
    begin = end + 1;
    if (item.empty()) continue;
    const std::size_t dash = item.find('-');
    const NodeId lo = id_of(item, item.substr(0, dash));
    const NodeId hi = dash == std::string_view::npos
                          ? lo
                          : id_of(item, item.substr(dash + 1));
    if (lo > hi) throw bad(item, "is an inverted range");
    for (std::size_t id = lo; id <= hi; ++id) {
      if (seen[id]) throw bad(item, "repeats node id " + std::to_string(id));
      seen[id] = true;
      ids.push_back(static_cast<NodeId>(id));
    }
  }
  require(!ids.empty(), "--nodes lists no node ids");
  return ids;
}

std::vector<std::string> endpoints_from_env(
    std::vector<std::string> fallback) {
  const char* env = std::getenv("MENDEL_ENDPOINTS");
  if (env == nullptr || *env == '\0') return fallback;
  auto parsed = parse_endpoint_list(env);
  if (parsed.empty()) return fallback;
  return parsed;
}

SocketTransport::SocketTransport(SocketOptions options)
    : options_(std::move(options)) {}

SocketTransport::~SocketTransport() { stop(); }

SocketTransport::Conn::~Conn() { ::close(fd); }

void SocketTransport::start() {
  require(!started_, "SocketTransport: start() called twice");
  started_ = true;
  running_.store(true, std::memory_order_release);

  // Listeners: one per unique endpoint among the locally hosted node ids.
  std::set<std::string> local_endpoints;
  for (const NodeId id : runtime_.ids()) {
    // Ids past the table (e.g. the client actor) have no endpoint.
    if (id < options_.endpoints.size()) {
      local_endpoints.insert(options_.endpoints[id]);
    }
  }
  for (const std::string& ep : local_endpoints) {
    const int fd = listen_fd_for(ep, options_.accept_backlog);
    listen_fds_.push_back(fd);
    threads_.emplace_back([this, fd] { accept_loop(fd); });
  }

  runtime_.start();

  // Remote peers: every unique endpoint serving a non-local id.
  std::vector<Peer*> to_dial;
  {
    std::lock_guard lock(peers_mu_);
    const double now = monotonic_seconds();
    for (NodeId id = 0; id < options_.endpoints.size(); ++id) {
      if (runtime_.hosts(id)) continue;
      const std::string& ep = options_.endpoints[id];
      auto it = std::find_if(peers_.begin(), peers_.end(),
                             [&](const auto& p) { return p->endpoint == ep; });
      if (it == peers_.end()) {
        it = peers_.insert(peers_.end(), std::make_unique<Peer>());
        (*it)->endpoint = ep;
        (*it)->last_seen = now;
        to_dial.push_back(it->get());
      }
      peer_of_id_[id] = it->get();
    }
  }

  // Eager dial: peers may come up in any order, so retry each within the
  // connect budget. Failure here is not fatal — the peer stays subject to
  // backoff redial and (if enabled) heartbeat down-marking. Dial
  // concurrently: a sequential loop would serialize the full connect
  // budget per missing peer. The accept loops are already live, so two
  // processes dialing each other both succeed (each side keeps its own
  // outbound connection).
  std::vector<std::thread> dialers;
  dialers.reserve(to_dial.size());
  for (Peer* peer : to_dial) {
    dialers.emplace_back([this, peer] {
      const double deadline = monotonic_seconds() + options_.connect_timeout;
      for (;;) {
        {
          std::lock_guard lock(peers_mu_);
          peer->dialing = true;
        }
        if (dial_peer(peer) != nullptr) break;
        if (monotonic_seconds() >= deadline) break;
        sleep_seconds(0.02);
      }
    });
  }
  for (auto& dialer : dialers) dialer.join();

  if (options_.heartbeat_interval > 0) {
    threads_.emplace_back([this] { monitor_loop(); });
  }
}

void SocketTransport::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  running_.store(false, std::memory_order_release);

  for (int fd : listen_fds_) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  listen_fds_.clear();

  // Join the dispatch workers (they drain their queues first) and the
  // control threads (accept loops exit on the closed listeners, the
  // monitor on running_) BEFORE collecting the reader threads: handler
  // sends, the monitor's redials and late accepts adopt new readers, so
  // collecting first would leave a joinable std::thread behind to
  // terminate() the process at destruction.
  runtime_.stop();
  for (auto& t : threads_) t.join();
  threads_.clear();

  // Shut every connection down; the reader threads wake and exit.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard lock(peers_mu_);
    for (auto& peer : peers_) {
      if (peer->conn) conns.push_back(peer->conn);
    }
    for (auto& conn : inbound_) conns.push_back(conn);
    hello_routes_.clear();
  }
  for (auto& conn : conns) close_conn(conn);

  std::vector<std::thread> readers;
  {
    std::lock_guard lock(reader_threads_mu_);
    readers_closed_ = true;
    readers.swap(reader_threads_);
  }
  for (auto& t : readers) t.join();
}

void SocketTransport::settle() {
  if (!runtime_.running()) return;
  std::vector<NodeId> endpoint_ids(options_.endpoints.size());
  std::iota(endpoint_ids.begin(), endpoint_ids.end(), NodeId{0});
  runtime_.settle(endpoint_ids, *this, options_.settle_timeout);
}

TransportHealth SocketTransport::health() const {
  return {.dropped_messages = dropped_messages(),
          .decode_errors = decode_errors(),
          .handler_errors = runtime_.handler_errors().size(),
          .frame_errors = frame_errors(),
          .reconnects = reconnects(),
          .heartbeats_missed =
              heartbeats_missed_.load(std::memory_order_relaxed)};
}

void SocketTransport::send(Message message) {
  ledger_.count(message);
  if (drops(message)) return;
  if (runtime_.hosts(message.to)) {
    runtime_.deliver(std::move(message));
    return;
  }
  std::shared_ptr<Conn> conn = connection_for(message.to);
  if (conn == nullptr) {
    count_drop();
  } else if (!write_frame(conn, encode_message_frame(message))) {
    close_conn(conn);
    count_drop();
  }
}

std::shared_ptr<SocketTransport::Conn> SocketTransport::connection_for(
    NodeId to) {
  Peer* peer = nullptr;
  {
    std::lock_guard lock(peers_mu_);
    auto hit = hello_routes_.find(to);
    if (hit != hello_routes_.end()) {
      if (hit->second->open.load(std::memory_order_acquire)) {
        return hit->second;
      }
      hello_routes_.erase(hit);
    }
    auto pit = peer_of_id_.find(to);
    if (pit == peer_of_id_.end()) {
      // No endpoint and no learned route: configuration bug, not a
      // runtime failure.
      throw ProtocolError("SocketTransport: no route to node " +
                          std::to_string(to));
    }
    peer = pit->second;
    if (peer->conn) {
      if (peer->conn->open.load(std::memory_order_acquire)) {
        return peer->conn;
      }
      peer->conn = nullptr;
    }
    const double now = monotonic_seconds();
    if (peer->dialing || now < peer->next_dial) return nullptr;
    peer->dialing = true;
  }
  return dial_peer(peer);
}

std::shared_ptr<SocketTransport::Conn> SocketTransport::dial_peer(
    Peer* peer) {
  // The endpoint string is immutable after start(), so it is safe to read
  // without peers_mu_ while the (slow) dial runs unlocked; `dialing` was
  // set by the caller and serializes concurrent dial attempts.
  std::shared_ptr<Conn> conn;
  const int fd =
      dial_fd(peer->endpoint, std::min(options_.connect_timeout, 0.5));
  if (fd >= 0) {
    conn = std::make_shared<Conn>(fd);
    // Hello preamble: announce our actor ids so the peer can route replies
    // (in particular to the client actor, which has no endpoint) back over
    // this connection.
    const auto hello = encode_hello_frame(runtime_.ids());
    if (!write_all(fd, hello.data(), hello.size())) conn = nullptr;
  }
  {
    std::lock_guard lock(peers_mu_);
    peer->dialing = false;
    if (conn == nullptr) {
      peer->backoff = peer->backoff <= 0
                          ? options_.reconnect_backoff
                          : std::min(peer->backoff * 2,
                                     options_.reconnect_backoff_max);
      peer->next_dial = monotonic_seconds() + peer->backoff;
      return nullptr;
    }
    peer->conn = conn;
    if (peer->ever_connected) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
    }
    peer->ever_connected = true;
    peer->backoff = 0.0;
    peer->next_dial = 0.0;
    peer->last_seen = monotonic_seconds();
    peer->hb_down = false;
  }
  adopt_reader(conn);
  return conn;
}

bool SocketTransport::write_frame(const std::shared_ptr<Conn>& conn,
                                  std::span<const std::uint8_t> bytes) {
  std::lock_guard lock(conn->write_mu);
  if (!conn->open.load(std::memory_order_acquire)) return false;
  return write_all(conn->fd, bytes.data(), bytes.size());
}

void SocketTransport::close_conn(const std::shared_ptr<Conn>& conn) {
  // Mark closed and shut the stream down: blocked readers and writers
  // wake with EOF/EPIPE. No lock, so this never waits behind a blocked
  // write(2); the caller's reference keeps the fd from being closed and
  // its number reused meanwhile (see Conn).
  if (!conn->open.exchange(false, std::memory_order_acq_rel)) return;
  ::shutdown(conn->fd, SHUT_RDWR);
}

void SocketTransport::adopt_reader(std::shared_ptr<Conn> conn) {
  std::lock_guard lock(reader_threads_mu_);
  if (readers_closed_) {
    // stop() already collected the readers; a connection racing shutdown
    // (e.g. a send-path redial from a draining handler) is just closed.
    close_conn(conn);
    return;
  }
  reader_threads_.emplace_back(
      [this, conn = std::move(conn)]() mutable { reader_loop(conn); });
}

void SocketTransport::reader_loop(std::shared_ptr<Conn> conn) {
  FrameParser parser(options_.max_frame_bytes);
  std::vector<std::uint8_t> buf(64 * 1024);
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    parser.feed({buf.data(), static_cast<std::size_t>(n)});
    try {
      Frame frame;
      while (parser.next(frame)) on_frame(conn, std::move(frame));
    } catch (const DecodeError&) {
      // Malformed stream: after a framing error the byte position is
      // untrustworthy, so the whole connection is dropped.
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  if (parser.buffered() > 0) {
    // Peer died mid-frame: a truncated frame is a decode failure, the
    // same category the application codecs report for cut-short buffers.
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  close_conn(conn);
  // Drop every reference the transport holds; the fd closes when the last
  // in-flight writer lets go of the connection.
  std::lock_guard lock(peers_mu_);
  for (auto it = hello_routes_.begin(); it != hello_routes_.end();) {
    it = it->second == conn ? hello_routes_.erase(it) : std::next(it);
  }
  for (auto& peer : peers_) {
    if (peer->conn == conn) peer->conn = nullptr;
  }
  std::erase(inbound_, conn);
}

void SocketTransport::on_frame(const std::shared_ptr<Conn>& conn,
                               Frame frame) {
  {
    // Any inbound frame proves the peer is alive.
    std::lock_guard lock(peers_mu_);
    for (auto& peer : peers_) {
      if (peer->conn == conn) {
        peer->last_seen = monotonic_seconds();
        peer->hb_down = false;
        break;
      }
    }
  }
  switch (frame.kind) {
    case FrameKind::kMessage:
      // A frame for an actor this process doesn't host: misrouted or
      // version-skewed peer. Count and drop.
      if (!runtime_.deliver(std::move(frame.message))) count_drop();
      return;
    case FrameKind::kHello: {
      std::lock_guard lock(peers_mu_);
      for (NodeId id : frame.hello) {
        hello_routes_[id] = conn;
        // Adopt the inbound connection for endpoint peers that are not
        // otherwise connected (two daemons that dialed each other end up
        // sharing one stream instead of redialing).
        auto pit = peer_of_id_.find(id);
        if (pit != peer_of_id_.end() && pit->second->conn == nullptr) {
          pit->second->conn = conn;
          pit->second->ever_connected = true;
          pit->second->last_seen = monotonic_seconds();
          pit->second->hb_down = false;
        }
      }
      return;
    }
    case FrameKind::kPing: {
      const auto pong = encode_ping_frame(FrameKind::kPong, frame.nonce);
      write_frame(conn, pong);
      return;
    }
    case FrameKind::kPong:
      return;  // liveness already recorded above
  }
}

void SocketTransport::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop()) or fatal error
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    set_nodelay(fd);
    auto conn = std::make_shared<Conn>(fd);
    {
      std::lock_guard lock(peers_mu_);
      inbound_.push_back(conn);
    }
    adopt_reader(std::move(conn));
  }
}

void SocketTransport::monitor_loop() {
  double next_tick = monotonic_seconds() + options_.heartbeat_interval;
  while (running_.load(std::memory_order_acquire)) {
    sleep_seconds(std::min(options_.heartbeat_interval, 0.05));
    const double now = monotonic_seconds();
    if (now < next_tick) continue;
    next_tick = now + options_.heartbeat_interval;

    std::vector<std::shared_ptr<Conn>> to_ping;
    std::vector<Peer*> to_dial;
    {
      std::lock_guard lock(peers_mu_);
      for (auto& peer : peers_) {
        if (peer->conn &&
            peer->conn->open.load(std::memory_order_acquire)) {
          to_ping.push_back(peer->conn);
        } else if (!peer->dialing && now >= peer->next_dial) {
          peer->dialing = true;
          to_dial.push_back(peer.get());
        }
        if (!peer->hb_down &&
            now - peer->last_seen > options_.heartbeat_timeout) {
          peer->hb_down = true;
          heartbeats_missed_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    const std::uint64_t nonce =
        ping_nonce_.fetch_add(1, std::memory_order_relaxed);
    const auto ping = encode_ping_frame(FrameKind::kPing, nonce);
    for (auto& conn : to_ping) {
      if (!write_frame(conn, ping)) close_conn(conn);
    }
    for (Peer* peer : to_dial) dial_peer(peer);
  }
}

void SocketTransport::heal_node(NodeId id) {
  FaultInjector::heal_node(id);
  // Give the peer a fresh liveness lease: a restarted daemon should be
  // redialed immediately, not after the stale backoff window.
  std::lock_guard lock(peers_mu_);
  auto pit = peer_of_id_.find(id);
  if (pit != peer_of_id_.end()) {
    pit->second->last_seen = monotonic_seconds();
    pit->second->hb_down = false;
    pit->second->next_dial = 0.0;
    pit->second->backoff = 0.0;
  }
}

bool SocketTransport::node_down(NodeId id) const {
  if (FaultInjector::node_down(id)) return true;
  if (options_.heartbeat_interval <= 0) return false;
  std::lock_guard lock(peers_mu_);
  auto pit = peer_of_id_.find(id);
  return pit != peer_of_id_.end() && pit->second->hb_down;
}

}  // namespace mendel::net
