// Fault injection: the one fault table behind every Mendel transport.
//
// Every Mendel transport can simulate node failure: a failed node's
// traffic is dropped (and counted) until the node is healed, and a
// partial-failure variant drops only one message type so tests can kill a
// node mid-dataflow. All three transports inherit FaultInjector, so chaos
// tests — and the Client's fail/heal machinery — are written once against
// Transport::fault_injector() instead of per concrete transport. The
// transports differ only in *where* they consult the table (the simulator
// at delivery, the others at send; see each transport's header), and
// SocketTransport adds heartbeat verdicts to node_down(): the membership
// view the Client consults when deferring cancel broadcasts.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/common/thread_annotations.h"

namespace mendel::net {

using NodeId = std::uint32_t;

struct Message;

// Thread-safe. The delivery path asks drops() for every message, so it
// reads one atomic flag and takes no lock while no fault is set.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  // Marks a node as failed: its traffic is dropped (counted in
  // dropped_messages()) until heal_node().
  void fail_node(NodeId id);
  // Re-admits the node and clears any partial-failure type drop.
  virtual void heal_node(NodeId id);
  virtual bool node_down(NodeId id) const;
  // Partial failure: drop only messages of one type to the node, leaving
  // it otherwise healthy (it keeps answering everything else and is NOT
  // node_down()). heal_node() clears it.
  void drop_type_to(NodeId id, std::uint32_t type);
  // Messages dropped by any of the mechanisms above, plus those a
  // transport could not deliver.
  std::uint64_t dropped_messages() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 protected:
  // True, and counted in dropped_messages(), when a fault drops `message`.
  bool drops(const Message& message);
  // Counts a message the transport could not deliver for its own reasons.
  void count_drop() { dropped_.fetch_add(1, std::memory_order_relaxed); }

 private:
  struct Fault {
    bool failed = false;
    std::optional<std::uint32_t> dropped_type;
  };

  mutable std::mutex mu_;
  std::unordered_map<NodeId, Fault> faults_ MENDEL_GUARDED_BY(mu_);
  std::atomic<bool> any_{false};  // !faults_.empty(), readable without mu_
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace mendel::net
