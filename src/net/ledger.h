// TrafficLedger: the one traffic account behind every Mendel transport.
//
// It keeps cluster-wide totals plus opt-in exact per-query buckets (the
// Transport begin/take_query_stats surface). Every transport calls count()
// once per sent message, before any fault may drop it, so the sender pays
// for the traffic either way.
//
// count() is the cross-node hot path and a tracked query routes every one
// of its ~thousand messages through it, so it takes no lock: totals are
// relaxed atomics, an atomic count of tracked queries gates attribution
// (zero → no lookup at all), and a tracked id claims one slot in a fixed
// open-addressed table whose counters senders bump after a lock-free probe.
// begin/take serialize slot claim and release on mu_ (cold, twice per
// query). When the table is full — batches larger than kSlots in flight —
// excess ids fall back to a mutex-guarded overflow map: attribution stays
// exact, only slower, and count() consults it only while it is non-empty.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "src/common/thread_annotations.h"
#include "src/net/message.h"

namespace mendel::net {

class TrafficLedger {
 public:
  void count(const Message& message) MENDEL_EXCLUDES(mu_);
  NetworkStats totals() const;

  // Starts attributing messages whose request_id is `query_id`. Id 0 is
  // never tracked; a repeated begin keeps the running bucket.
  void begin(std::uint64_t query_id) MENDEL_EXCLUDES(mu_);
  // Stops tracking `query_id` and returns its bucket (zeros if untracked).
  // Callers settle the query first, so no count() for it races the release.
  NetworkStats take(std::uint64_t query_id) MENDEL_EXCLUDES(mu_);

 private:
  struct Slot {
    std::atomic<std::uint64_t> id{0};  // 0 = free
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  static constexpr std::size_t kSlots = 128;
  static constexpr std::size_t kProbe = 8;
  // The slot in query_id's probe window holding `id`: query_id itself to
  // find its bucket, 0 for a free slot. Null when there is none.
  Slot* probe(std::uint64_t query_id, std::uint64_t id);

  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::array<Slot, kSlots> slots_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, NetworkStats> overflow_
      MENDEL_GUARDED_BY(mu_);
  std::atomic<std::size_t> overflow_tracked_{0};
  std::atomic<std::size_t> tracked_{0};
};

}  // namespace mendel::net
