#include "src/net/ledger.h"

namespace mendel::net {

TrafficLedger::Slot* TrafficLedger::probe(std::uint64_t query_id,
                                          std::uint64_t id) {
  const std::size_t h = static_cast<std::size_t>(query_id) % kSlots;
  for (std::size_t p = 0; p < kProbe; ++p) {
    Slot& slot = slots_[(h + p) % kSlots];
    if (slot.id.load(std::memory_order_acquire) == id) return &slot;
  }
  return nullptr;
}

void TrafficLedger::count(const Message& message) {
  const std::size_t size = message.wire_size();
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(size, std::memory_order_relaxed);
  if (message.request_id == 0 ||
      tracked_.load(std::memory_order_acquire) == 0) {
    return;
  }
  if (Slot* slot = probe(message.request_id, message.request_id)) {
    slot->messages.fetch_add(1, std::memory_order_relaxed);
    slot->bytes.fetch_add(size, std::memory_order_relaxed);
  } else if (overflow_tracked_.load(std::memory_order_acquire) != 0) {
    std::lock_guard lock(mu_);
    auto it = overflow_.find(message.request_id);
    if (it != overflow_.end()) {
      it->second.messages += 1;
      it->second.bytes += size;
    }
  }
}

NetworkStats TrafficLedger::totals() const {
  NetworkStats stats;
  stats.messages = messages_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  return stats;
}

void TrafficLedger::begin(std::uint64_t query_id) {
  if (query_id == 0) return;
  std::lock_guard lock(mu_);
  if (probe(query_id, query_id) != nullptr || overflow_.contains(query_id)) {
    return;
  }
  // Only begin/take mutate ids, both under mu_, so the free slot stays
  // free; the release store publishes the zeroed counters to the lock-free
  // readers in count().
  if (Slot* slot = probe(query_id, 0)) {
    slot->messages.store(0, std::memory_order_relaxed);
    slot->bytes.store(0, std::memory_order_relaxed);
    slot->id.store(query_id, std::memory_order_release);
  } else {
    overflow_.emplace(query_id, NetworkStats{});
    overflow_tracked_.fetch_add(1, std::memory_order_release);
  }
  tracked_.fetch_add(1, std::memory_order_release);
}

NetworkStats TrafficLedger::take(std::uint64_t query_id) {
  if (query_id == 0) return {};
  std::lock_guard lock(mu_);
  NetworkStats out;
  if (Slot* slot = probe(query_id, query_id)) {
    out.messages = slot->messages.load(std::memory_order_relaxed);
    out.bytes = slot->bytes.load(std::memory_order_relaxed);
    slot->id.store(0, std::memory_order_release);
  } else {
    auto it = overflow_.find(query_id);
    if (it == overflow_.end()) return {};
    out = it->second;
    overflow_.erase(it);
    overflow_tracked_.fetch_sub(1, std::memory_order_release);
  }
  tracked_.fetch_sub(1, std::memory_order_release);
  return out;
}

}  // namespace mendel::net
