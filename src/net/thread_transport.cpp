#include "src/net/thread_transport.h"

#include "src/common/error.h"

namespace mendel::net {

void ThreadTransport::send(Message message) {
  const NodeId to = message.to;
  // The sender pays the traffic either way (parity with SimTransport, which
  // counts at send and drops at delivery).
  ledger_.count(message);
  if (drops(message)) return;
  if (!runtime_.deliver(std::move(message))) {
    throw ProtocolError("ThreadTransport: send to unregistered node " +
                        std::to_string(to));
  }
}

}  // namespace mendel::net
