// TransportFactory: the one place a transport is chosen and constructed.
//
// Every runtime (Client, cluster tools, examples, the mendel-node daemon)
// selects its transport through TransportMode + TransportConfig instead of
// naming a concrete class, so adding a transport — as the socket transport
// was — touches this file and nothing upstream. The returned Transport
// exposes the capabilities callers need: fault_injector() for failure
// injection and the stats/per-query attribution surface, both backed by the
// same FaultInjector table and TrafficLedger in every transport.
// Runtime-specific control (SimTransport::run_until_idle,
// ThreadTransport::wait_idle, SocketTransport::start) stays behind a
// dynamic_cast by the owner that selected the mode — the factory
// deliberately does not wrap those, since their semantics differ per
// runtime.
#pragma once

#include <cstdint>
#include <memory>

#include "src/net/message.h"
#include "src/net/sim_transport.h"
#include "src/net/socket_transport.h"
#include "src/net/thread_transport.h"

namespace mendel::net {

enum class TransportMode {
  kSim,       // deterministic discrete-event simulator (virtual time)
  kThreaded,  // one OS thread per node (wall time, real concurrency)
  kSocket,    // real sockets between processes (mendel-node daemons)
};

struct TransportConfig {
  TransportMode mode = TransportMode::kSim;
  // kSim: simulated network cost model and schedule-exploration seed.
  CostModel cost;
  std::uint64_t schedule_seed = 0;
  // kSocket: endpoints and deployment knobs.
  SocketOptions socket;
};

// Constructs the transport for `config.mode`. The concrete lifecycle calls
// (start/run/stop) remain the owner's job.
std::unique_ptr<Transport> make_transport(const TransportConfig& config);

}  // namespace mendel::net
