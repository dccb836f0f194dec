// Discrete-event network simulator with virtual time.
//
// Why a simulator: the paper's evaluation ran on a 50-node LAN cluster. A
// reproduction on a single machine cannot observe real parallel speedup by
// running 50 threads on a few cores — wall time would serialize the very
// parallelism Figure 6c measures. Instead, SimTransport executes the *real*
// handler code (real vp-tree searches, real alignment DP) and charges each
// handler's measured CPU time to the *owning node's* virtual clock:
//
//   start(m)   = max(node_clock[to], arrival_time(m))
//   node_clock = start(m) + handler_cpu_seconds * cpu_scale + proc_overhead
//
// Messages emitted by a handler leave at the node's clock after the handler
// finished and arrive `latency + size/bandwidth` later. A query's turnaround
// is the virtual time at which the client actor receives the final response
// — exactly the makespan an N-node cluster with these CPU costs and this
// network would exhibit. The engine is single-threaded, so runs are
// reproducible (ties broken by injection sequence number).
//
// For unit tests that need bit-exact timing across machines, set
// `CostModel::measured_cpu = false`; every handler is then charged the fixed
// `proc_overhead` instead of measured time.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "src/net/fault.h"
#include "src/net/ledger.h"
#include "src/net/message.h"

namespace mendel::net {

struct CostModel {
  // One-way link latency (seconds) — LAN-scale default.
  double latency = 100e-6;
  // Link bandwidth (bytes/second) — 10 GbE default.
  double bandwidth = 1.25e9;
  // Fixed cost charged per handled message (dispatch, deserialize).
  double proc_overhead = 5e-6;
  // Multiplier on measured handler CPU seconds (1.0 = charge as measured).
  double cpu_scale = 1.0;
  // When false, handler CPU is not measured; only proc_overhead is charged
  // (deterministic timing for tests).
  bool measured_cpu = true;

  double transfer_delay(std::size_t bytes) const {
    return latency + static_cast<double>(bytes) / bandwidth;
  }
};

class SimTransport final : public Transport, public FaultInjector {
 public:
  explicit SimTransport(CostModel cost = {}) : cost_(cost) {}

  void register_actor(NodeId id, Actor* actor) override;

  // From inside a handler: departs at the sending node's current virtual
  // clock. From outside run(): departs at `external_now_`.
  void send(Message message) override;

  // Processes events until the queue drains; returns the final virtual
  // time (max over node clocks and deliveries). The external clock
  // advances to it, so later injections start there.
  double run_until_idle();

  // Transport lifecycle: settle() is run_until_idle(); idle() is always
  // true, because nothing runs between the caller's settle() calls; now()
  // is the external injection clock.
  void settle() override { run_until_idle(); }
  bool idle() const override { return true; }
  double now() const override { return external_now_; }
  TransportHealth health() const override {
    return {.dropped_messages = dropped_messages()};
  }

  // Moves the external injection clock (tests that space injections).
  void set_external_time(double now) { external_now_ = now; }

  double node_clock(NodeId id) const;
  NetworkStats stats() const override { return ledger_.totals(); }
  void begin_query_stats(std::uint64_t query_id) override {
    ledger_.begin(query_id);
  }
  NetworkStats take_query_stats(std::uint64_t query_id) override {
    return ledger_.take(query_id);
  }

  // Total measured handler CPU seconds charged so far (all nodes).
  double total_cpu_seconds() const { return total_cpu_; }

  // Schedule exploration: with a nonzero seed, every delivery time gets a
  // small deterministic jitter derived from (seed, injection sequence), so
  // messages that would arrive in near-tied order are delivered in a
  // seed-dependent permutation. Causality is preserved — a handler's
  // outbound messages still depart only after the handler finished — but
  // fan-in arrival orders, which the protocol must be insensitive to,
  // differ per seed. An interleaving-coverage analog of a race detector at
  // the protocol level: the parity suite sweeps seeds and asserts ranked
  // hits never change, printing the seed for replay when they do. Seed 0
  // (default) disables jitter and reproduces the historical schedule.
  void set_schedule_seed(std::uint64_t seed) { schedule_seed_ = seed; }
  std::uint64_t schedule_seed() const { return schedule_seed_; }

  // Fault injection (FaultInjector): a failed node's deliveries are silently
  // dropped at delivery time and counted in dropped_messages().
  FaultInjector* fault_injector() override { return this; }

 private:
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // tie-breaker: FIFO among equal-time events
    Message message;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  CostModel cost_;
  std::map<NodeId, Actor*> actors_;
  std::map<NodeId, double> clocks_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  TrafficLedger ledger_;
  // Deterministic per-event delivery jitter in [0, 4*latency); see
  // set_schedule_seed().
  double schedule_jitter(std::uint64_t seq) const;

  std::uint64_t next_seq_ = 0;
  std::uint64_t schedule_seed_ = 0;
  double external_now_ = 0.0;
  double total_cpu_ = 0.0;

  // While a handler runs, its outbound messages are buffered here and
  // stamped with the handler's completion time once it returns.
  bool in_handler_ = false;
  std::vector<Message> pending_;
};

}  // namespace mendel::net
