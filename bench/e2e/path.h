// Critical path of one traced query, read off its reassembled spans.
//
// The query dataflow records point spans at each stage boundary (see
// src/obs/trace.h): client.submit → coord.route → group.broadcast →
// node.search → group.merge → group.extend → coord.fanin → coord.finish →
// client.reply. The path follows the group whose group.extend lands last
// (the group the coordinator's fan-in waited for) and splits the query's
// turnaround into the intervals between consecutive boundaries:
//
//   admit     client.submit      → coord.route        encode, queue, wire
//   dispatch  coord.route        → group.broadcast    routing, group hop
//   search    group.broadcast    → last node.search end
//   merge     last search end    → group.merge        results back, fan-in
//   extend    group.merge        → group.extend       fetch + ungapped
//   fanin     group.extend       → coord.fanin end    group result hop
//   finish    coord.fanin end    → coord.finish       gapped fetch + DP
//   reply     coord.finish       → client.reply       ranking, reply hop
//
// Every timestamp comes from the same clock as the turnaround, so the
// intervals sum to it exactly; `unaccounted` is the turnaround minus the
// intervals whose two boundary spans were both recorded. Under the
// simulator node.search spans carry no duration, so search time shows up
// in `merge` there.
#pragma once

#include <array>

#include "src/obs/trace.h"

namespace mendel::bench {

inline constexpr std::array<const char*, 8> kPathIntervals = {
    "admit", "dispatch", "search", "merge",
    "extend", "fanin", "finish", "reply"};

struct PathBreakdown {
  // Seconds, indexed like kPathIntervals; 0 when a boundary span is missing.
  std::array<double, kPathIntervals.size()> interval{};
  double unaccounted = 0.0;
  bool complete = true;
};

PathBreakdown critical_path(const obs::QueryTrace& trace, double turnaround);

}  // namespace mendel::bench
