// Unit tests for src/net: the discrete-event SimTransport (virtual time,
// parallel makespan semantics, failure injection) and the thread-backed
// ThreadTransport (real concurrency, quiescence drain).
#include <gtest/gtest.h>

#include <atomic>

#include "src/common/error.h"
#include "src/net/sim_transport.h"
#include "src/net/thread_transport.h"

namespace mendel::net {
namespace {

Message make(NodeId from, NodeId to, std::uint32_t type,
             std::uint64_t request_id = 0,
             std::vector<std::uint8_t> payload = {}) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = type;
  m.request_id = request_id;
  m.payload = std::move(payload);
  return m;
}

// Deterministic cost model for timing assertions.
CostModel fixed_cost() {
  CostModel cost;
  cost.latency = 1e-3;        // 1 ms links
  cost.bandwidth = 1e12;      // negligible transfer time
  cost.proc_overhead = 1e-4;  // 0.1 ms per message
  cost.measured_cpu = false;
  return cost;
}

// ---------- SimTransport ----------

TEST(SimTransport, DeliversToRegisteredActor) {
  SimTransport transport(fixed_cost());
  int received = 0;
  FunctionActor actor([&](const Message& m, Context&) {
    EXPECT_EQ(m.type, 7u);
    ++received;
  });
  transport.register_actor(1, &actor);
  transport.send(make(0xff, 1, 7));
  transport.run_until_idle();
  EXPECT_EQ(received, 1);
}

TEST(SimTransport, UnknownDestinationThrows) {
  SimTransport transport;
  EXPECT_THROW(transport.send(make(0, 99, 1)), ProtocolError);
}

TEST(SimTransport, DuplicateRegistrationThrows) {
  SimTransport transport;
  FunctionActor actor([](const Message&, Context&) {});
  transport.register_actor(1, &actor);
  EXPECT_THROW(transport.register_actor(1, &actor), InvalidArgument);
}

TEST(SimTransport, RequestReplyRoundTrip) {
  SimTransport transport(fixed_cost());
  FunctionActor server([](const Message& m, Context& ctx) {
    ctx.send(m.from, m.type + 1, m.request_id, {});
  });
  std::uint64_t reply_request = 0;
  FunctionActor client([&](const Message& m, Context&) {
    reply_request = m.request_id;
    EXPECT_EQ(m.type, 11u);
  });
  transport.register_actor(1, &server);
  transport.register_actor(2, &client);
  transport.send(make(2, 1, 10, 42));
  transport.run_until_idle();
  EXPECT_EQ(reply_request, 42u);
}

TEST(SimTransport, VirtualTimeAccumulatesLatencyAndProcessing) {
  SimTransport transport(fixed_cost());
  double arrival = -1;
  FunctionActor server([](const Message& m, Context& ctx) {
    ctx.send(m.from, 2, m.request_id, {});
  });
  FunctionActor client([&](const Message&, Context& ctx) {
    arrival = ctx.now();
  });
  transport.register_actor(1, &server);
  transport.register_actor(2, &client);
  transport.send(make(2, 1, 1));
  transport.run_until_idle();
  // Path: latency (1ms) -> processing (0.1ms) -> latency (1ms); arrival at
  // the client is ~2.1 ms (plus negligible transfer bytes).
  EXPECT_NEAR(arrival, 2.1e-3, 2e-4);
}

TEST(SimTransport, FanOutProcessesInParallelAcrossNodes) {
  // One coordinator fans out to N workers; each worker charges
  // proc_overhead. Under virtual time the workers run concurrently, so the
  // fan-in completes in ~(2 * latency + 1 * processing), NOT N * processing.
  CostModel cost = fixed_cost();
  cost.proc_overhead = 10e-3;  // make per-node processing dominant
  SimTransport transport(cost);

  const int workers = 10;
  FunctionActor worker([](const Message& m, Context& ctx) {
    ctx.send(0, 2, m.request_id, {});
  });
  std::vector<std::unique_ptr<FunctionActor>> workers_alive;
  int replies = 0;
  double done_at = -1;
  FunctionActor coordinator([&](const Message& m, Context& ctx) {
    if (m.type == 1) {
      for (int w = 1; w <= workers; ++w) {
        ctx.send(static_cast<NodeId>(w), 1, m.request_id, {});
      }
      return;
    }
    if (++replies == workers) done_at = ctx.now();
  });
  transport.register_actor(0, &coordinator);
  for (int w = 1; w <= workers; ++w) {
    workers_alive.push_back(std::make_unique<FunctionActor>(
        [](const Message& m, Context& ctx) {
          ctx.send(0, 2, m.request_id, {});
        }));
    transport.register_actor(static_cast<NodeId>(w),
                             workers_alive.back().get());
  }
  transport.send(make(0xff, 0, 1));
  transport.run_until_idle();

  ASSERT_EQ(replies, workers);
  // Serial execution would need ~workers * 10 ms = 100 ms; parallel
  // virtual time needs ~10 ms (one worker's processing) + overheads. The
  // coordinator then processes 10 replies serially (10 * 10 ms) — so use
  // the *workers'* completion: done_at is when the last reply was handled.
  // Bound loosely: must be far below the fully serial 10*10ms fan-out plus
  // 10*10ms fan-in = 200 ms.
  EXPECT_LT(done_at, 150e-3);
  // And the per-node clocks show each worker only did ~1 unit of work.
  for (int w = 1; w <= workers; ++w) {
    EXPECT_LT(transport.node_clock(static_cast<NodeId>(w)), 25e-3);
  }
}

TEST(SimTransport, SerialWorkOnOneNodeQueues) {
  CostModel cost = fixed_cost();
  cost.proc_overhead = 5e-3;
  SimTransport transport(cost);
  int handled = 0;
  FunctionActor server([&](const Message&, Context&) { ++handled; });
  transport.register_actor(1, &server);
  for (int i = 0; i < 10; ++i) transport.send(make(0xff, 1, 1));
  transport.run_until_idle();
  EXPECT_EQ(handled, 10);
  // All ten messages arrive ~simultaneously but the node processes them
  // back to back: clock ~= latency + 10 * 5ms.
  EXPECT_NEAR(transport.node_clock(1), 1e-3 + 10 * 5e-3, 2e-3);
}

TEST(SimTransport, StatsCountMessagesAndBytes) {
  SimTransport transport(fixed_cost());
  FunctionActor sink([](const Message&, Context&) {});
  transport.register_actor(1, &sink);
  transport.send(make(0xff, 1, 1, 0, std::vector<std::uint8_t>(100)));
  transport.send(make(0xff, 1, 1, 0, std::vector<std::uint8_t>(50)));
  transport.run_until_idle();
  EXPECT_EQ(transport.stats().messages, 2u);
  EXPECT_EQ(transport.stats().bytes, 2 * 24 + 150u);
}

TEST(SimTransport, FailedNodeDropsMessages) {
  SimTransport transport(fixed_cost());
  int received = 0;
  FunctionActor sink([&](const Message&, Context&) { ++received; });
  transport.register_actor(1, &sink);
  transport.fail_node(1);
  transport.send(make(0xff, 1, 1));
  transport.run_until_idle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(transport.dropped_messages(), 1u);
  transport.heal_node(1);
  transport.send(make(0xff, 1, 1));
  transport.run_until_idle();
  EXPECT_EQ(received, 1);
}

TEST(SimTransport, ExternalTimeAdvancesBetweenInjections) {
  SimTransport transport(fixed_cost());
  double second_arrival = -1;
  FunctionActor sink([&](const Message& m, Context& ctx) {
    if (m.request_id == 2) second_arrival = ctx.now();
  });
  transport.register_actor(1, &sink);
  transport.send(make(0xff, 1, 1, 1));
  const double horizon = transport.run_until_idle();
  transport.set_external_time(horizon);
  transport.send(make(0xff, 1, 1, 2));
  transport.run_until_idle();
  EXPECT_GE(second_arrival, horizon);
}

TEST(SimTransport, MeasuredCpuChargesHandlerTime) {
  CostModel cost;
  cost.latency = 0;
  cost.bandwidth = 1e15;
  cost.proc_overhead = 0;
  cost.measured_cpu = true;
  SimTransport transport(cost);
  FunctionActor burner([](const Message&, Context&) {
    // Busy-work the handler so measured CPU is clearly > 0.
    volatile double x = 0;
    for (int i = 0; i < 2000000; ++i) x = x + i * 0.5;
  });
  transport.register_actor(1, &burner);
  transport.send(make(0xff, 1, 1));
  const double horizon = transport.run_until_idle();
  EXPECT_GT(horizon, 0.0);
  EXPECT_GT(transport.total_cpu_seconds(), 0.0);
  EXPECT_NEAR(transport.node_clock(1), transport.total_cpu_seconds(), 1e-6);
}

// ---------- ThreadTransport ----------

TEST(ThreadTransport, EchoAcrossThreads) {
  ThreadTransport transport;
  FunctionActor server([](const Message& m, Context& ctx) {
    ctx.send(m.from, m.type + 1, m.request_id, m.payload);
  });
  std::atomic<int> replies{0};
  FunctionActor client([&](const Message& m, Context&) {
    EXPECT_EQ(m.type, 6u);
    ++replies;
  });
  transport.register_actor(1, &server);
  transport.register_actor(2, &client);
  transport.start();
  for (int i = 0; i < 20; ++i) transport.send(make(2, 1, 5, i));
  transport.stop();
  EXPECT_EQ(replies.load(), 20);
}

TEST(ThreadTransport, CascadeDrainsCompletely) {
  // A chain of forwards: 0 -> 1 -> 2 -> 3; drain must wait for the whole
  // cascade, not just the first hop.
  ThreadTransport transport;
  std::atomic<int> terminal{0};
  FunctionActor hop0([](const Message& m, Context& ctx) {
    ctx.send(1, m.type, m.request_id, {});
  });
  FunctionActor hop1([](const Message& m, Context& ctx) {
    ctx.send(2, m.type, m.request_id, {});
  });
  FunctionActor hop2([&](const Message&, Context&) { ++terminal; });
  transport.register_actor(0, &hop0);
  transport.register_actor(1, &hop1);
  transport.register_actor(2, &hop2);
  transport.start();
  for (int i = 0; i < 50; ++i) transport.send(make(0xff, 0, 1));
  transport.stop();
  EXPECT_EQ(terminal.load(), 50);
}

TEST(ThreadTransport, UnknownDestinationThrows) {
  ThreadTransport transport;
  EXPECT_THROW(transport.send(make(0, 4, 1)), ProtocolError);
}

TEST(ThreadTransport, RegisterAfterStartThrows) {
  ThreadTransport transport;
  FunctionActor actor([](const Message&, Context&) {});
  transport.register_actor(0, &actor);
  transport.start();
  FunctionActor late([](const Message&, Context&) {});
  EXPECT_THROW(transport.register_actor(1, &late), InvalidArgument);
  transport.stop();
}

TEST(ThreadTransport, ThrowingHandlerRecordsErrorAndStillDrains) {
  // A handler that throws must not wedge the in-flight accounting: the
  // worker records the error, keeps serving its mailbox, and the drain
  // barrier still completes (a wedged counter would deadlock here).
  ThreadTransport transport;
  std::atomic<int> survived{0};
  FunctionActor flaky([&](const Message& m, Context&) {
    if (m.request_id % 2 == 0) throw std::runtime_error("boom");
    ++survived;
  });
  transport.register_actor(3, &flaky);
  transport.start();
  for (int i = 0; i < 10; ++i) transport.send(make(0xff, 3, 1, i));
  transport.stop();

  EXPECT_EQ(survived.load(), 5);
  const auto errors = transport.handler_errors();
  ASSERT_EQ(errors.size(), 5u);
  EXPECT_NE(errors[0].find("node 3"), std::string::npos);
  EXPECT_NE(errors[0].find("boom"), std::string::npos);
  EXPECT_TRUE(transport.idle());
}

TEST(ThreadTransport, FailedNodeDropsMessagesUntilHealed) {
  ThreadTransport transport;
  std::atomic<int> received{0};
  FunctionActor sink([&](const Message&, Context&) { ++received; });
  transport.register_actor(1, &sink);
  transport.start();

  EXPECT_FALSE(transport.node_down(1));
  transport.fail_node(1);
  EXPECT_TRUE(transport.node_down(1));
  for (int i = 0; i < 4; ++i) transport.send(make(0xff, 1, 1));
  transport.wait_idle();
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(transport.dropped_messages(), 4u);
  // Drops still count as traffic the sender paid for.
  EXPECT_EQ(transport.stats().messages, 4u);

  transport.heal_node(1);
  EXPECT_FALSE(transport.node_down(1));
  transport.send(make(0xff, 1, 1));
  transport.stop();
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(transport.dropped_messages(), 4u);
}

TEST(ThreadTransport, StatsAreThreadSafe) {
  ThreadTransport transport;
  FunctionActor ping([](const Message& m, Context& ctx) {
    if (m.request_id > 0) ctx.send(1, 1, m.request_id - 1, {});
  });
  FunctionActor pong([](const Message& m, Context& ctx) {
    if (m.request_id > 0) ctx.send(0, 1, m.request_id - 1, {});
  });
  transport.register_actor(0, &ping);
  transport.register_actor(1, &pong);
  transport.start();
  transport.send(make(0xff, 0, 1, 100));  // 100-hop ping-pong
  transport.stop();
  EXPECT_EQ(transport.stats().messages, 101u);
}

}  // namespace
}  // namespace mendel::net
