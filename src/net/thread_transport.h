// Thread-backed transport: one OS thread and one blocking mailbox per actor.
//
// This is the "real concurrency" twin of SimTransport. It runs the same
// Actor code under genuine parallel execution and real memory visibility,
// which the integration tests use to confirm that the cluster protocol is
// free of ordering assumptions that only hold in the single-threaded
// simulator, and which the concurrent query pipeline (Client in
// TransportMode::kThreaded) uses to serve many in-flight queries at once.
// It reports wall-clock time, not virtual time, so it is not used for the
// scalability figures (see sim_transport.h for why).
//
// All it owns is drop-at-send: mailboxes, dispatch, quiescence and error
// capture are LocalRuntime's, traffic is TrafficLedger's, fault state is
// FaultInjector's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/fault.h"
#include "src/net/ledger.h"
#include "src/net/local_runtime.h"
#include "src/net/message.h"

namespace mendel::net {

class ThreadTransport final : public Transport, public FaultInjector {
 public:
  ThreadTransport() = default;
  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  // All actors must be registered before start().
  void register_actor(NodeId id, Actor* actor) override {
    runtime_.add(id, actor);
  }
  // Spawns one worker thread per registered actor.
  void start() { runtime_.start(); }

  // Thread-safe; may be called from handlers or from outside. Messages to
  // failed nodes are dropped (counted in dropped_messages()).
  void send(Message message) override;

  // The quiescence barrier between pipeline phases (indexing, query
  // batches); the workers keep running.
  void wait_idle() { runtime_.wait_idle(); }
  bool idle() const { return runtime_.idle(); }
  void drain_and_stop() { runtime_.drain_and_stop(); }

  NetworkStats stats() const override { return ledger_.totals(); }
  void begin_query_stats(std::uint64_t query_id) override {
    ledger_.begin(query_id);
  }
  NetworkStats take_query_stats(std::uint64_t query_id) override {
    return ledger_.take(query_id);
  }

  FaultInjector* fault_injector() override { return this; }
  std::uint64_t decode_errors() const { return runtime_.decode_errors(); }
  std::vector<std::string> handler_errors() const {
    return runtime_.handler_errors();
  }

 private:
  TrafficLedger ledger_;
  // Last member: its dispatch threads send through this transport, so it
  // is destroyed (and its threads joined) before anything they touch.
  LocalRuntime runtime_{this};
};

}  // namespace mendel::net
