// Socket transport: frame layer, live Unix-domain/TCP loopback wiring,
// reconnect/heartbeat machinery, the FaultInjector and traffic-attribution
// contracts shared by all three transports, and the local dispatch contract
// shared by the threaded and socket transports.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/net/frame.h"
#include "src/net/sim_transport.h"
#include "src/net/socket_transport.h"
#include "src/net/thread_transport.h"

namespace mendel {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------ frame layer

net::Message sample_message() {
  net::Message m;
  m.from = 3;
  m.to = 7;
  m.type = 42;
  m.request_id = 0x1122334455667788ull;
  m.payload = {1, 2, 3, 250, 0};
  return m;
}

TEST(Frame, RoundtripAllKindsThroughParser) {
  net::FrameParser parser;
  parser.feed(net::encode_message_frame(sample_message()));
  parser.feed(net::encode_hello_frame({0, 5, net::kClientNode}));
  parser.feed(net::encode_ping_frame(net::FrameKind::kPing, 99));
  parser.feed(net::encode_ping_frame(net::FrameKind::kPong, 100));

  net::Frame frame;
  ASSERT_TRUE(parser.next(frame));
  EXPECT_EQ(frame.kind, net::FrameKind::kMessage);
  EXPECT_EQ(frame.message.from, 3u);
  EXPECT_EQ(frame.message.to, 7u);
  EXPECT_EQ(frame.message.type, 42u);
  EXPECT_EQ(frame.message.request_id, 0x1122334455667788ull);
  EXPECT_EQ(frame.message.payload, sample_message().payload);

  ASSERT_TRUE(parser.next(frame));
  EXPECT_EQ(frame.kind, net::FrameKind::kHello);
  EXPECT_EQ(frame.hello,
            (std::vector<net::NodeId>{0, 5, net::kClientNode}));

  ASSERT_TRUE(parser.next(frame));
  EXPECT_EQ(frame.kind, net::FrameKind::kPing);
  EXPECT_EQ(frame.nonce, 99u);

  ASSERT_TRUE(parser.next(frame));
  EXPECT_EQ(frame.kind, net::FrameKind::kPong);
  EXPECT_EQ(frame.nonce, 100u);

  EXPECT_FALSE(parser.next(frame));
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Frame, SplitFeedsReassembleExactly) {
  // A stream has no message boundaries: byte-at-a-time feeds must emit the
  // same frames as one coalesced feed.
  const auto message = sample_message();
  auto bytes = net::encode_message_frame(message);
  const auto hello = net::encode_hello_frame({4});
  bytes.insert(bytes.end(), hello.begin(), hello.end());

  net::FrameParser parser;
  net::Frame frame;
  std::vector<net::Frame> seen;
  for (const std::uint8_t byte : bytes) {
    parser.feed({&byte, 1});
    while (parser.next(frame)) seen.push_back(frame);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].kind, net::FrameKind::kMessage);
  EXPECT_EQ(seen[0].message.payload, message.payload);
  EXPECT_EQ(seen[1].kind, net::FrameKind::kHello);
  EXPECT_EQ(seen[1].hello, std::vector<net::NodeId>{4});
}

TEST(Frame, CoalescedFramesDrainInOrder) {
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t nonce : {1, 2, 3}) {
    const auto one = net::encode_ping_frame(net::FrameKind::kPing, nonce);
    bytes.insert(bytes.end(), one.begin(), one.end());
  }
  net::FrameParser parser;
  parser.feed(bytes);
  net::Frame frame;
  for (std::uint64_t nonce : {1, 2, 3}) {
    ASSERT_TRUE(parser.next(frame));
    EXPECT_EQ(frame.nonce, nonce);
  }
  EXPECT_FALSE(parser.next(frame));
}

TEST(Frame, OversizedLengthPrefixRejected) {
  // A hostile length prefix must be rejected before any allocation of that
  // size — both against a custom bound and the default kMaxFrameBytes.
  net::FrameParser small(64);
  const std::vector<std::uint8_t> big_length = {0x00, 0x01, 0x00, 0x00};
  small.feed(big_length);  // 256 > 64
  net::Frame frame;
  EXPECT_THROW(small.next(frame), DecodeError);

  net::FrameParser dflt;
  const std::vector<std::uint8_t> huge = {0xff, 0xff, 0xff, 0xff};
  dflt.feed(huge);
  EXPECT_THROW(dflt.next(frame), DecodeError);
}

TEST(Frame, UnknownKindRejected) {
  std::vector<std::uint8_t> bytes = {1, 0, 0, 0, 9};  // length 1, kind 9
  net::FrameParser parser;
  parser.feed(bytes);
  net::Frame frame;
  EXPECT_THROW(parser.next(frame), DecodeError);
}

TEST(Frame, BodyLengthMismatchRejected) {
  // A hello body whose id list does not consume the declared length
  // exactly is a framing error (strict decode, like the application
  // codecs).
  auto bytes = net::encode_hello_frame({1, 2});
  bytes[0] += 1;           // stretch the declared body length
  bytes.push_back(0xaa);   // ... and supply the trailing byte
  net::FrameParser parser;
  parser.feed(bytes);
  net::Frame frame;
  EXPECT_THROW(parser.next(frame), DecodeError);
}

TEST(Frame, TruncatedFrameLeavesBufferedBytes) {
  const auto bytes = net::encode_message_frame(sample_message());
  net::FrameParser parser;
  parser.feed({bytes.data(), bytes.size() - 3});
  net::Frame frame;
  EXPECT_FALSE(parser.next(frame));
  // Nonzero buffered() at EOF is how the transport detects a peer that
  // died mid-frame.
  EXPECT_GT(parser.buffered(), 0u);
}

// -------------------------------------------------- live socket wiring

std::string uds_endpoint(const std::string& tag, int index) {
  return "unix:" + testing::TempDir() + "mendel_" +
         std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(index) + ".sock";
}

// Polls until `done` returns true or the deadline passes.
bool poll_until(const std::function<bool()>& done,
                std::chrono::seconds budget = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

net::SocketOptions socket_options(std::vector<std::string> endpoints) {
  net::SocketOptions options;
  options.endpoints = std::move(endpoints);
  options.connect_timeout = 10.0;
  return options;
}

// Two transports in one process, exactly as two processes would wire up:
// the server side hosts node 0 on its endpoint; the client side hosts the
// endpoint-less client actor and reaches node 0 by dialing.
void run_echo_roundtrip(const std::string& endpoint) {
  net::SocketTransport server(socket_options({endpoint}));
  net::FunctionActor echo([](const net::Message& m, net::Context& ctx) {
    ctx.send(m.from, m.type + 1, m.request_id, m.payload);
  });
  server.register_actor(0, &echo);
  server.start();

  net::SocketTransport client(socket_options({endpoint}));
  std::mutex mu;
  std::vector<net::Message> replies;
  net::FunctionActor sink([&](const net::Message& m, net::Context&) {
    std::lock_guard lock(mu);
    replies.push_back(m);
  });
  client.register_actor(net::kClientNode, &sink);
  client.start();

  net::Message m;
  m.from = net::kClientNode;
  m.to = 0;
  m.type = 7;
  m.request_id = 12345;
  m.payload = {9, 8, 7};
  client.send(std::move(m));

  ASSERT_TRUE(poll_until([&] {
    std::lock_guard lock(mu);
    return !replies.empty();
  })) << "no echo reply over " << endpoint;
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(replies[0].from, 0u);
    EXPECT_EQ(replies[0].to, net::kClientNode);
    EXPECT_EQ(replies[0].type, 8u);
    EXPECT_EQ(replies[0].request_id, 12345u);
    EXPECT_EQ(replies[0].payload, (std::vector<std::uint8_t>{9, 8, 7}));
  }
  EXPECT_EQ(server.handler_errors().size(), 0u);
  EXPECT_EQ(client.handler_errors().size(), 0u);
  client.stop();
  server.stop();
}

TEST(SocketTransport, UnixDomainEchoRoundtrip) {
  run_echo_roundtrip(uds_endpoint("echo", 0));
}

TEST(SocketTransport, TcpEchoRoundtrip) {
  // No ephemeral-port support (the static endpoint table needs concrete
  // ports), so probe a pid-derived range for a free one.
  const int base = 21000 + static_cast<int>(::getpid() % 20000);
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(base + attempt * 13);
    try {
      run_echo_roundtrip(endpoint);
      return;
    } catch (const IoError&) {
      continue;  // port taken; try the next
    }
  }
  FAIL() << "no free TCP port in the probed range";
}

// ------------------------------------------ shared transport contracts

// The chaos and accounting surfaces are written once against
// net::FaultInjector and net::Transport; these harnesses pin the shared
// semantics on every transport. `pump` drives the transport toward
// quiescence (sim: drain; threaded and socket: wait for local idle).
struct FaultHarness {
  net::Transport* transport = nullptr;
  net::FaultInjector* fault = nullptr;
  std::function<void()> pump;
  std::function<std::vector<std::uint32_t>()> received_types;
};

class TypeRecorder : public net::Actor {
 public:
  void handle(const net::Message& m, net::Context&) override {
    std::lock_guard lock(mu_);
    types_.push_back(m.type);
  }
  std::vector<std::uint32_t> types() const {
    std::lock_guard lock(mu_);
    return types_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::uint32_t> types_;
};

using Contract = void (*)(const FaultHarness&);

// Each runner hosts a TypeRecorder as node 1 and hands the contract a
// harness over it.
void run_on_sim(Contract contract) {
  net::SimTransport transport;
  TypeRecorder recorder;
  transport.register_actor(1, &recorder);
  contract({&transport, transport.fault_injector(),
            [&] { transport.run_until_idle(); },
            [&] { return recorder.types(); }});
}

void run_on_threads(Contract contract) {
  net::ThreadTransport transport;
  TypeRecorder recorder;
  transport.register_actor(1, &recorder);
  transport.start();
  contract({&transport, transport.fault_injector(),
            [&] { transport.wait_idle(); },
            [&] { return recorder.types(); }});
  transport.drain_and_stop();
}

void run_on_socket(const std::string& tag, Contract contract) {
  // Both actors local to one transport: the fault check and the ledger sit
  // ahead of local dispatch, so the contracts are topology independent.
  net::SocketTransport transport(
      socket_options({uds_endpoint(tag, 0), uds_endpoint(tag, 1)}));
  net::FunctionActor sender([](const net::Message&, net::Context&) {});
  TypeRecorder recorder;
  transport.register_actor(0, &sender);  // else id 0 would be dialed
  transport.register_actor(1, &recorder);
  transport.start();
  contract({&transport, transport.fault_injector(),
            [&] { transport.wait_local_idle(); },
            [&] { return recorder.types(); }});
  transport.stop();
}

net::Message to_node_1(std::uint32_t type, std::uint64_t request_id,
                       std::size_t payload_bytes = 0) {
  net::Message m;
  m.from = 0;
  m.to = 1;
  m.type = type;
  m.request_id = request_id;
  m.payload.assign(payload_bytes, 0);
  return m;
}

void exercise_fault_contract(const FaultHarness& h) {
  auto send = [&](std::uint32_t type) {
    h.transport->send(to_node_1(type, 1));
  };
  auto delivered = [&](std::vector<std::uint32_t> expected) {
    h.pump();
    EXPECT_TRUE(poll_until([&] { return h.received_types() == expected; }))
        << "delivered types diverged";
  };

  EXPECT_FALSE(h.fault->node_down(1));
  EXPECT_EQ(h.fault->dropped_messages(), 0u);
  send(7);
  delivered({7});

  // Full failure: traffic dropped and counted, membership reports down.
  h.fault->fail_node(1);
  EXPECT_TRUE(h.fault->node_down(1));
  send(7);
  h.pump();
  EXPECT_TRUE(poll_until([&] { return h.fault->dropped_messages() == 1u; }));
  delivered({7});

  // Heal restores delivery.
  h.fault->heal_node(1);
  EXPECT_FALSE(h.fault->node_down(1));
  send(8);
  delivered({7, 8});

  // Partial failure: only the dropped type is lost, the node is NOT down.
  h.fault->drop_type_to(1, 7);
  EXPECT_FALSE(h.fault->node_down(1));
  send(7);  // dropped
  send(9);  // in-order behind the drop: its arrival proves 7 never will
  delivered({7, 8, 9});
  EXPECT_TRUE(poll_until([&] { return h.fault->dropped_messages() == 2u; }));

  h.fault->heal_node(1);
  send(7);
  delivered({7, 8, 9, 7});
  EXPECT_EQ(h.fault->dropped_messages(), 2u);
}

// Per-query attribution is counted inside send(), so every expectation
// holds as soon as the sends return; the pump only settles delivery.
void exercise_attribution_contract(const FaultHarness& h) {
  net::Transport& t = *h.transport;
  auto send = [&](std::uint64_t id, std::size_t bytes) {
    t.send(to_node_1(/*type=*/3, id, bytes));
  };
  auto expect_bucket = [&](std::uint64_t id, std::uint64_t messages,
                           std::uint64_t payload_bytes) {
    const net::NetworkStats got = t.take_query_stats(id);
    EXPECT_EQ(got.messages, messages) << "query " << id;
    EXPECT_EQ(got.bytes, messages * 24 + payload_bytes) << "query " << id;
  };

  // Interleaved ids: each bucket holds exactly its own messages, untracked
  // and sentinel ids count only toward the totals.
  const net::NetworkStats before = t.stats();
  t.begin_query_stats(10);
  t.begin_query_stats(20);
  t.begin_query_stats(0);  // 0 is never tracked
  for (int round = 0; round < 3; ++round) {
    send(10, 1);
    send(20, 5);
    send(30, 2);
    send(0, 4);
  }
  t.begin_query_stats(10);  // repeated begin keeps the running bucket
  send(10, 1);
  expect_bucket(10, 4, 4);
  expect_bucket(20, 3, 15);
  expect_bucket(10, 0, 0);  // already taken
  expect_bucket(30, 0, 0);  // never tracked
  expect_bucket(0, 0, 0);
  EXPECT_EQ(t.stats().messages - before.messages, 13u);
  EXPECT_EQ(t.stats().bytes - before.bytes, 13u * 24 + 37);

  // More ids in flight than the ledger's slot table holds: the excess
  // spills to the overflow map and must stay exact.
  constexpr std::uint64_t kFirst = 1000;
  constexpr std::uint64_t kIds = 300;
  for (std::uint64_t id = kFirst; id < kFirst + kIds; ++id) {
    t.begin_query_stats(id);
  }
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t id = kFirst; id < kFirst + kIds; ++id) {
      if (round <= id % 3) send(id, id % 7);
    }
  }
  for (std::uint64_t id = kFirst; id < kFirst + kIds; ++id) {
    expect_bucket(id, 1 + id % 3, (1 + id % 3) * (id % 7));
  }
  h.pump();
}

TEST(FaultInjector, ContractHoldsOnSimTransport) {
  run_on_sim(exercise_fault_contract);
}

TEST(FaultInjector, ContractHoldsOnThreadTransport) {
  run_on_threads(exercise_fault_contract);
}

TEST(FaultInjector, ContractHoldsOnSocketTransport) {
  run_on_socket("fault", exercise_fault_contract);
}

TEST(TrafficAttribution, ContractHoldsOnSimTransport) {
  run_on_sim(exercise_attribution_contract);
}

TEST(TrafficAttribution, ContractHoldsOnThreadTransport) {
  run_on_threads(exercise_attribution_contract);
}

TEST(TrafficAttribution, ContractHoldsOnSocketTransport) {
  run_on_socket("ledger", exercise_attribution_contract);
}

// ThreadTransport and SocketTransport share one local actor runtime: pin
// its registration and handler-error semantics on both.
template <typename LocalTransport>
void exercise_dispatch_contract(LocalTransport& transport,
                                const std::function<void()>& start,
                                const std::function<void()>& quiesce) {
  net::FunctionActor picky([](const net::Message& m, net::Context&) {
    // Grow the payload before failing. The recorded identity must show the
    // grown size, which proves the error string is formed after the
    // handler threw rather than ahead of every dispatch.
    const_cast<net::Message&>(m).payload.push_back(0);
    throw DecodeError("bad bytes");
  });
  net::FunctionActor other([](const net::Message&, net::Context&) {});
  transport.register_actor(1, &picky);
  EXPECT_THROW(transport.register_actor(1, &other), InvalidArgument);
  start();

  net::Message grown = to_node_1(5, 77, 3);
  grown.payload.push_back(0);
  transport.send(to_node_1(5, 77, 3));
  quiesce();
  EXPECT_EQ(transport.decode_errors(), 1u);
  const auto errors = transport.handler_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0],
            "node 1 handling " + net::describe(grown) + ": bad bytes");
}

TEST(LocalDispatch, ContractHoldsOnThreadTransport) {
  net::ThreadTransport transport;
  exercise_dispatch_contract(
      transport, [&] { transport.start(); },
      [&] { transport.wait_idle(); });
  transport.drain_and_stop();
}

TEST(LocalDispatch, ContractHoldsOnSocketTransport) {
  // No endpoints: node 1 is local only, nothing listens or dials.
  net::SocketTransport transport(socket_options({}));
  exercise_dispatch_contract(
      transport, [&] { transport.start(); },
      [&] { transport.wait_local_idle(); });
  transport.stop();
}

// ------------------------------------- reconnects, heartbeats, bad bytes

TEST(SocketTransport, PeerRestartTriggersRedialAndDelivery) {
  const std::string ep = uds_endpoint("restart", 0);
  net::SocketTransport client(socket_options({ep}));
  net::FunctionActor sink([](const net::Message&, net::Context&) {});
  client.register_actor(net::kClientNode, &sink);

  TypeRecorder first_recorder;
  auto server = std::make_unique<net::SocketTransport>(socket_options({ep}));
  server->register_actor(0, &first_recorder);
  server->start();
  client.start();

  auto send_one = [&](std::uint32_t type) {
    net::Message m;
    m.from = net::kClientNode;
    m.to = 0;
    m.type = type;
    m.request_id = 1;
    client.send(std::move(m));
  };
  send_one(1);
  ASSERT_TRUE(poll_until([&] { return first_recorder.types().size() == 1; }));

  // Kill the peer process (transport teardown closes its sockets). Sends
  // now drop — and are counted — while the backoff machinery gates
  // redials.
  server->stop();
  EXPECT_TRUE(poll_until([&] {
    send_one(2);
    return client.dropped_messages() > 0;
  }));

  // "Restart" on the same endpoint; send-path redials must find it without
  // any explicit heal.
  TypeRecorder second_recorder;
  net::SocketTransport revived(socket_options({ep}));
  revived.register_actor(0, &second_recorder);
  revived.start();
  EXPECT_TRUE(poll_until([&] {
    send_one(3);
    return !second_recorder.types().empty();
  })) << "redial never reached the restarted peer";
  EXPECT_GE(client.reconnects(), 1u);

  client.stop();
  revived.stop();
}

TEST(SocketTransport, HeartbeatMarksSilentPeerDownThenRecovers) {
  const std::string ep = uds_endpoint("hb", 0);
  auto client_options = socket_options({ep});
  client_options.heartbeat_interval = 0.05;
  client_options.heartbeat_timeout = 0.3;
  net::SocketTransport client(client_options);
  net::FunctionActor sink([](const net::Message&, net::Context&) {});
  client.register_actor(net::kClientNode, &sink);

  TypeRecorder recorder;
  auto server = std::make_unique<net::SocketTransport>(socket_options({ep}));
  server->register_actor(0, &recorder);
  server->start();
  client.start();
  ASSERT_FALSE(client.node_down(0));

  server->stop();
  server.reset();
  EXPECT_TRUE(poll_until([&] { return client.node_down(0); }))
      << "silent peer never marked down";
  EXPECT_GE(client.heartbeats_missed(), 1u);

  // The monitor keeps redialing: once the peer is back and a pong lands,
  // the down verdict clears without any manual heal.
  net::SocketTransport revived(socket_options({ep}));
  TypeRecorder revived_recorder;
  revived.register_actor(0, &revived_recorder);
  revived.start();
  EXPECT_TRUE(poll_until([&] { return !client.node_down(0); }))
      << "recovered peer still reported down";

  client.stop();
  revived.stop();
}

TEST(SocketTransport, MalformedStreamCountsFrameErrors) {
  const std::string ep = uds_endpoint("bad", 0);
  net::SocketTransport server(socket_options({ep}));
  TypeRecorder recorder;
  server.register_actor(0, &recorder);
  server.start();

  const std::string path = ep.substr(5);  // strip "unix:"
  auto raw_connect = [&] {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  };

  // Hostile length prefix: rejected at the framing layer, connection
  // dropped, both error counters advance.
  {
    const int fd = raw_connect();
    const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
    EXPECT_EQ(::write(fd, huge, sizeof(huge)), 4);
    EXPECT_TRUE(poll_until([&] { return server.frame_errors() >= 1; }));
    EXPECT_GE(server.decode_errors(), 1u);
    ::close(fd);
  }

  // Peer dying mid-frame: the truncated tail is a framing error too.
  {
    const auto bytes = net::encode_message_frame(sample_message());
    const int fd = raw_connect();
    EXPECT_EQ(::write(fd, bytes.data(), bytes.size() - 3),
              static_cast<ssize_t>(bytes.size() - 3));
    ::close(fd);
    EXPECT_TRUE(poll_until([&] { return server.frame_errors() >= 2; }));
  }
  EXPECT_TRUE(recorder.types().empty());
  server.stop();
}

TEST(SocketTransport, EndpointParsingAndEnvOverride) {
  EXPECT_TRUE(net::parse_endpoint_list("").empty());
  EXPECT_EQ(net::parse_endpoint_list("a:1, unix:/x ,b:2"),
            (std::vector<std::string>{"a:1", "unix:/x", "b:2"}));

  ::setenv("MENDEL_ENDPOINTS", "h1:1,h2:2", 1);
  EXPECT_EQ(net::endpoints_from_env({"fallback:9"}),
            (std::vector<std::string>{"h1:1", "h2:2"}));
  ::unsetenv("MENDEL_ENDPOINTS");
  EXPECT_EQ(net::endpoints_from_env({"fallback:9"}),
            (std::vector<std::string>{"fallback:9"}));
}

}  // namespace
}  // namespace mendel
