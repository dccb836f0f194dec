#include "src/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "src/obs/json.h"

namespace mendel::obs {

void SpanBuffer::add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> SpanBuffer::take(std::uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  auto keep = spans_.begin();
  for (auto it = spans_.begin(); it != spans_.end(); ++it) {
    if (it->query_id == query_id) {
      out.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  spans_.erase(keep, spans_.end());
  return out;
}

std::uint64_t SpanBuffer::next_span_id(std::uint32_t node) {
  std::lock_guard<std::mutex> lock(mu_);
  return (static_cast<std::uint64_t>(node) << 32) | ++next_seq_;
}

std::size_t SpanBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::uint64_t SpanBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void QueryTrace::sort() {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.node != b.node) return a.node < b.node;
              return a.span_id < b.span_id;
            });
}

bool QueryTrace::has_span(std::string_view name) const {
  return std::any_of(spans.begin(), spans.end(),
                     [&](const SpanRecord& s) { return s.name == name; });
}

namespace {

// Fixed-precision start time: microsecond resolution is enough for both
// the simulator's virtual clock and wall time, and a pinned precision is
// what makes format() byte-stable.
std::string format_start(double start) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", start);
  return buf;
}

}  // namespace

std::string QueryTrace::format() const {
  // Depth via parent links; orphaned parents (span on a node whose buffer
  // overflowed) render at depth 0 rather than failing.
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const auto& s : spans) by_id.emplace(s.span_id, &s);
  auto depth_of = [&](const SpanRecord& s) {
    int depth = 0;
    std::uint64_t parent = s.parent_span;
    while (parent != 0 && depth < 16) {
      auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      ++depth;
      parent = it->second->parent_span;
    }
    return depth;
  };

  char buf[64];
  std::string out;
  std::snprintf(buf, sizeof(buf), "query %" PRIu64 ": %zu spans\n", query_id,
                spans.size());
  out += buf;
  for (const auto& s : spans) {
    out += "  ";
    out.append(static_cast<std::size_t>(depth_of(s)) * 2, ' ');
    out += '[';
    out += format_start(s.start);
    out += "] ";
    out += s.name;
    std::snprintf(buf, sizeof(buf), " node=%u", s.node);
    out += buf;
    if (s.value != 0) {
      std::snprintf(buf, sizeof(buf), " value=%" PRIu64, s.value);
      out += buf;
    }
    if (s.duration_ns != 0) {
      std::snprintf(buf, sizeof(buf), " dur=%.3fms",
                    static_cast<double>(s.duration_ns) * 1e-6);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string QueryTrace::to_json() const {
  char buf[64];
  std::string out = "{\n  \"query_id\": ";
  std::snprintf(buf, sizeof(buf), "%" PRIu64, query_id);
  out += buf;
  out += ",\n  \"spans\": [";
  bool first = true;
  for (const auto& s : spans) {
    out += first ? "\n    {\"name\": \"" : ",\n    {\"name\": \"";
    first = false;
    Json::escape(s.name, out);
    std::snprintf(buf, sizeof(buf), "\", \"node\": %u", s.node);
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"span_id\": %" PRIu64, s.span_id);
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"parent_span\": %" PRIu64,
                  s.parent_span);
    out += buf;
    out += ", \"start\": " + format_start(s.start);
    std::snprintf(buf, sizeof(buf), ", \"duration_ns\": %" PRIu64,
                  s.duration_ns);
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"value\": %" PRIu64 "}", s.value);
    out += buf;
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace mendel::obs
