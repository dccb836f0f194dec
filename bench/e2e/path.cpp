#include "bench/e2e/path.h"

#include <optional>
#include <string_view>

namespace mendel::bench {

namespace {

using Time = std::optional<double>;

double end_of(const obs::SpanRecord& span) {
  return span.start + static_cast<double>(span.duration_ns) * 1e-9;
}

const obs::SpanRecord* first_named(const obs::QueryTrace& trace,
                                   std::string_view name) {
  for (const auto& span : trace.spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

// The stage boundaries one group recorded under its broadcast span.
struct GroupPath {
  const obs::SpanRecord* broadcast = nullptr;
  Time search_end;
  Time merge;
  Time extend;

  // When the group's work landed: its last recorded boundary.
  double landed() const {
    if (extend) return *extend;
    if (merge) return *merge;
    if (search_end) return *search_end;
    return broadcast->start;
  }
};

GroupPath group_path(const obs::QueryTrace& trace,
                     const obs::SpanRecord& broadcast) {
  GroupPath path;
  path.broadcast = &broadcast;
  for (const auto& span : trace.spans) {
    if (span.parent_span != broadcast.span_id) continue;
    if (span.name == "node.search") {
      const double end = end_of(span);
      if (!path.search_end || end > *path.search_end) path.search_end = end;
    } else if (span.name == "group.merge") {
      path.merge = span.start;
    } else if (span.name == "group.extend") {
      path.extend = span.start;
    }
  }
  return path;
}

}  // namespace

PathBreakdown critical_path(const obs::QueryTrace& trace, double turnaround) {
  std::array<Time, kPathIntervals.size() + 1> at;
  const auto* submit = first_named(trace, "client.submit");
  const auto* route = first_named(trace, "coord.route");
  const auto* fanin = first_named(trace, "coord.fanin");
  const auto* finish = first_named(trace, "coord.finish");
  const auto* reply = first_named(trace, "client.reply");
  if (submit) at[0] = submit->start;
  if (route) at[1] = route->start;

  std::optional<GroupPath> last;
  for (const auto& span : trace.spans) {
    if (span.name != "group.broadcast") continue;
    GroupPath path = group_path(trace, span);
    if (!last || path.landed() > last->landed()) last = path;
  }
  if (last) {
    at[2] = last->broadcast->start;
    at[3] = last->search_end;
    at[4] = last->merge;
    at[5] = last->extend;
  }
  if (fanin) at[6] = end_of(*fanin);
  if (finish) at[7] = finish->start;
  if (reply) at[8] = reply->start;

  PathBreakdown out;
  double accounted = 0.0;
  for (std::size_t i = 0; i < kPathIntervals.size(); ++i) {
    if (at[i] && at[i + 1]) {
      out.interval[i] = *at[i + 1] - *at[i];
      accounted += out.interval[i];
    } else {
      out.complete = false;
    }
  }
  out.unaccounted = turnaround - accounted;
  return out;
}

}  // namespace mendel::bench
