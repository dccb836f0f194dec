#include "src/net/fault.h"

#include "src/net/message.h"

namespace mendel::net {

void FaultInjector::fail_node(NodeId id) {
  std::lock_guard lock(mu_);
  faults_[id].failed = true;
  any_.store(true, std::memory_order_release);
}

void FaultInjector::heal_node(NodeId id) {
  std::lock_guard lock(mu_);
  faults_.erase(id);
  any_.store(!faults_.empty(), std::memory_order_release);
}

void FaultInjector::drop_type_to(NodeId id, std::uint32_t type) {
  std::lock_guard lock(mu_);
  faults_[id].dropped_type = type;
  any_.store(true, std::memory_order_release);
}

bool FaultInjector::node_down(NodeId id) const {
  if (!any_.load(std::memory_order_acquire)) return false;
  std::lock_guard lock(mu_);
  const auto it = faults_.find(id);
  return it != faults_.end() && it->second.failed;
}

bool FaultInjector::drops(const Message& message) {
  if (!any_.load(std::memory_order_acquire)) return false;
  {
    std::lock_guard lock(mu_);
    const auto it = faults_.find(message.to);
    if (it == faults_.end() ||
        (!it->second.failed && it->second.dropped_type != message.type)) {
      return false;
    }
  }
  count_drop();
  return true;
}

}  // namespace mendel::net
