#include "src/net/sim_transport.h"

#include <algorithm>

#include "src/common/error.h"
#include "src/common/stopwatch.h"

namespace mendel::net {

void SimTransport::register_actor(NodeId id, Actor* actor) {
  require(actor != nullptr, "SimTransport: null actor");
  require(!actors_.contains(id),
          "SimTransport: duplicate actor id " + std::to_string(id));
  actors_[id] = actor;
  clocks_[id] = 0.0;
}

void SimTransport::send(Message message) {
  if (!actors_.contains(message.to)) {
    throw ProtocolError("SimTransport: send to unregistered node " +
                        std::to_string(message.to));
  }
  ledger_.count(message);
  if (in_handler_) {
    // A handler's outbound messages depart when the handler's node clock
    // advances past its (yet unknown) completion time; buffer them and
    // stamp after the handler returns.
    pending_.push_back(std::move(message));
    return;
  }
  Event event;
  event.seq = next_seq_++;
  event.time = external_now_ + cost_.transfer_delay(message.wire_size()) +
               schedule_jitter(event.seq);
  event.message = std::move(message);
  queue_.push(std::move(event));
}

double SimTransport::schedule_jitter(std::uint64_t seq) const {
  if (schedule_seed_ == 0) return 0.0;
  // splitmix64 over (seed, seq): cheap, stateless, and replayable — the
  // same seed always yields the same schedule regardless of how many
  // events preceded this one.
  std::uint64_t x = schedule_seed_ ^ (seq * 0x9E3779B97F4A7C15ULL);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  // [0, 1) from the top 53 bits, scaled to a few link latencies: enough to
  // permute near-tied fan-in arrivals, small enough that virtual-time
  // metrics stay in the same regime.
  const double unit =
      static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
  return unit * 4.0 * cost_.latency;
}

double SimTransport::run_until_idle() {
  double horizon = external_now_;
  while (!queue_.empty()) {
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();

    if (drops(event.message)) continue;
    Actor* actor = actors_.at(event.message.to);
    double& clock = clocks_[event.message.to];
    const double start = std::max(clock, event.time);

    // Execute the real handler, measuring its CPU cost.
    in_handler_ = true;
    Stopwatch watch;
    Context ctx(this, event.message.to, start, /*virtual_time=*/true);
    try {
      actor->handle(event.message, ctx);
    } catch (...) {
      in_handler_ = false;
      pending_.clear();
      throw;
    }
    in_handler_ = false;

    const double cpu = cost_.measured_cpu ? watch.seconds() : 0.0;
    total_cpu_ += cpu;
    const double end = start + cpu * cost_.cpu_scale + cost_.proc_overhead;
    clock = std::max(clock, end);
    horizon = std::max(horizon, end);

    // Messages the handler emitted depart at `end`.
    for (auto& outbound : pending_) {
      Event e;
      e.seq = next_seq_++;
      e.time = end + cost_.transfer_delay(outbound.wire_size()) +
               schedule_jitter(e.seq);
      e.message = std::move(outbound);
      horizon = std::max(horizon, e.time);
      queue_.push(std::move(e));
    }
    pending_.clear();
  }
  external_now_ = std::max(external_now_, horizon);
  return horizon;
}

double SimTransport::node_clock(NodeId id) const {
  auto it = clocks_.find(id);
  require(it != clocks_.end(), "SimTransport: unknown node clock");
  return it->second;
}

}  // namespace mendel::net
