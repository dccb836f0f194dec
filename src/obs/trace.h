// Per-query distributed tracing.
//
// A TraceContext (enabled flag + parent span id) rides inside the query
// dataflow payloads — kQueryRequest, kGroupQuery, kNodeSearch, kFetchRange
// — so every node that does work on behalf of a query knows the query id
// (the message's request_id) and which upstream span caused the work. Each
// node appends SpanRecords into its local SpanBuffer; the client collects
// them after the reply with a kCollectTrace broadcast and reassembles the
// QueryTrace timeline.
//
// Determinism contract: span start timestamps come from Context::now(),
// which is virtual under the simulator, and duration_ns is only measured
// when the transport reports wall-clock time (Context::virtual_time() is
// false). Under TransportMode::kSim with CostModel::measured_cpu disabled,
// two identical runs therefore produce byte-identical QueryTrace::format()
// output — the property tests/obs_test.cpp pins.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"

namespace mendel::obs {

// Carried inside query-dataflow payloads (not the Message envelope, which
// stays at its pinned 24-byte wire size). The query id itself is not
// repeated here: it is always the carrying message's request_id.
struct TraceContext {
  std::uint8_t enabled = 0;      // 0 = tracing off, spans are not recorded
  std::uint64_t parent_span = 0; // span id of the upstream cause, 0 at root

  template <class Io>
  void fields(Io& io) {
    io(enabled, parent_span);
  }

  bool on() const { return enabled != 0; }
  // Derived context for fanned-out work caused by span `span_id`.
  TraceContext child(std::uint64_t span_id) const {
    return TraceContext{enabled, span_id};
  }
};

// One timed unit of pipeline work on one node.
struct SpanRecord {
  std::string name;              // stage name, e.g. "node.search"
  std::uint32_t node = 0;        // node id (client spans use the entry id)
  std::uint64_t query_id = 0;
  std::uint64_t span_id = 0;     // (node << 32) | per-node sequence
  std::uint64_t parent_span = 0; // 0 for the root span
  double start = 0.0;            // Context::now(): virtual (sim) or wall (s)
  std::uint64_t duration_ns = 0; // 0 under virtual time
  std::uint64_t value = 0;       // stage-specific count (subqueries, hits…)

  template <class Io>
  void fields(Io& io) {
    io(name, node, query_id, span_id, parent_span, start, duration_ns, value);
  }
};

// Per-node accumulation of spans, drained by query id when the client's
// kCollectTrace broadcast arrives. Bounded: once `capacity` spans are held,
// new spans are counted in dropped() and discarded — a slow collector must
// not grow node memory without bound.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 1 << 16)
      : capacity_(capacity) {}

  void add(SpanRecord span) MENDEL_EXCLUDES(mu_);
  // Removes and returns this query's spans, in recording order.
  std::vector<SpanRecord> take(std::uint64_t query_id) MENDEL_EXCLUDES(mu_);

  // Allocates the next span id for `node`: (node << 32) | sequence. The
  // sequence is per-buffer, so ids are unique per node and deterministic
  // given a deterministic event order.
  std::uint64_t next_span_id(std::uint32_t node) MENDEL_EXCLUDES(mu_);

  std::size_t size() const MENDEL_EXCLUDES(mu_);
  std::uint64_t dropped() const MENDEL_EXCLUDES(mu_);

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_ MENDEL_GUARDED_BY(mu_);
  std::uint32_t next_seq_ MENDEL_GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ MENDEL_GUARDED_BY(mu_) = 0;
};

// Client-side reassembly of one query's spans from every node plus the
// client's own admit/reply spans.
struct QueryTrace {
  std::uint64_t query_id = 0;
  std::vector<SpanRecord> spans;

  // Orders spans by (start, node, span_id) — a total order that is stable
  // across runs whenever the inputs are (virtual time + deterministic ids).
  void sort();

  bool has_span(std::string_view name) const;

  // Human-readable timeline, one line per span, indented by parent depth.
  // Byte-stable under the determinism contract above.
  std::string format() const;
  std::string to_json() const;
};

}  // namespace mendel::obs
