// TransportFactory: the one place a transport is chosen and constructed.
//
// Every runtime (Client, cluster tools, examples, the mendel-node daemon)
// selects its transport through TransportMode + TransportConfig instead of
// naming a concrete class, so adding a transport — as the socket transport
// was — touches this file and nothing upstream. The returned Transport
// carries everything an owner needs: the lifecycle (start, settle, idle,
// now, stop), fault_injector() for failure injection, health() and the
// stats/per-query attribution surface, backed by the same FaultInjector
// table and TrafficLedger in every transport. No owner casts to a concrete
// class.
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

// Constructs the transport for `config.mode`; the owner then drives it
// through Transport::start/settle/stop.
std::unique_ptr<Transport> make_transport(const TransportConfig& config);

}  // namespace mendel::net
