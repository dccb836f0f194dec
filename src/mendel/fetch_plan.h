// The extension pipeline's fetch side: coalescing the per-seed subject
// ranges a group entry wants into the minimal set of kFetchRange requests,
// and the fetch→extend stage both aggregating roles run on their plans.
//
// Anchors of the same sequence cluster on nearby diagonals, so their margin-
// padded fetch windows overlap heavily; issuing one ranged fetch per merged
// seed re-ships the same subject bytes several times and pays a per-message
// round trip for each. The coalescer unions overlapping or touching windows
// per sequence, so one kFetchRange serves every member seed. Extension later
// clamps each member back to its own requested window (a subspan of the
// coalesced buffer), which keeps anchors byte-identical to the one-fetch-
// per-seed dataflow.
//
// The coalescer is a pure function over value types — no node state — so
// tests can pin its rules directly (tests/fetch_plan_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/mendel/protocol.h"
#include "src/net/message.h"

namespace mendel::core {

// Window lengths travel in u32 fields. A longer window is saturated, which
// loses nothing: the home clamps every window to its sequence.
inline std::uint32_t saturate_length(std::uint64_t length) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      length, std::numeric_limits<std::uint32_t>::max()));
}

// A subject window [start, end): `before` codes below `lo` (clamped at 0)
// to `after` codes past `hi`. The margins come from a request's
// QueryParams, so the sums run in 64 bits and cannot wrap.
struct PaddedWindow {
  std::uint32_t start = 0;
  std::uint64_t end = 0;

  std::uint32_t length() const { return saturate_length(end - start); }
};

inline PaddedWindow padded_window(std::uint32_t lo, std::uint64_t hi,
                                  std::uint64_t before, std::uint64_t after) {
  return {lo > before ? static_cast<std::uint32_t>(lo - before) : 0U,
          hi + after};
}

// One requester-side range want: `length` codes of `sequence` from `start`
// (already margin-padded and clamped at zero by the caller).
struct RangeRequest {
  std::uint32_t sequence = 0;
  std::uint32_t start = 0;
  std::uint32_t length = 0;
};

// A coalesced fetch covering one or more requests of the same sequence.
// `members` are indices into the request vector handed to coalesce_ranges,
// ascending; each member's window is fully contained in [start, start+length).
struct CoalescedRange {
  std::uint32_t sequence = 0;
  std::uint32_t start = 0;
  std::uint32_t length = 0;
  std::vector<std::uint32_t> members;
};

// Unions requests of the same sequence whose windows overlap or touch
// (duplicate and adjacent windows coalesce too). Deterministic: output is
// sorted by (sequence, start) and member lists ascend, independent of the
// input order. Zero-length requests join a covering range if one exists at
// their start; otherwise they form their own empty-window fetch.
std::vector<CoalescedRange> coalesce_ranges(
    const std::vector<RangeRequest>& requests);

// One range a fetch stage asks for: `length` codes of `sequence` from
// `start`, from `home` (net::kClientNode: no alive replica, or skipped).
struct PlannedFetch {
  net::NodeId home = net::kClientNode;
  std::uint32_t sequence = 0;
  std::uint32_t start = 0;
  std::uint32_t length = 0;
};

// A received range: the home's clamped start, the subject's name, and the
// codes (short when the home clamped at the end of the subject).
struct FetchedRange {
  std::uint32_t start = 0;
  std::string name;
  std::vector<seq::Code> codes;
};

// The step both anchor aggregations end with (paper §V-B): fetch subject
// ranges from their home nodes and extend against each as it arrives. Each
// pending query owns one stage; the role extends each admitted range on
// its node's dispatch thread.
//
// Reply acceptance: a kFetchRangeResult is admitted only for a token this
// stage sent and has not yet received, carrying the sequence it asked for.
// Anything else (duplicate, never-issued or out-of-range token, wrong
// sequence) throws DecodeError, which the node counts and drops, so each
// range is extended at most once.
class FetchStage {
 public:
  // Sends one kFetchRange per planned range with a home (token = plan
  // index); returns how many went out.
  std::size_t start(std::vector<PlannedFetch> plan, FetchPurpose purpose,
                    std::uint64_t query_id, const obs::TraceContext& trace,
                    net::Context& ctx);

  // Admits one reply and returns its token, whose range() is now set.
  std::size_t accept(FetchRangeResultPayload reply);

  // True once every sent range has been admitted.
  bool done() const { return outstanding_ == 0; }

  const FetchedRange& range(std::size_t token) const {
    return *fetched_[token];
  }

 private:
  std::vector<PlannedFetch> plan_;
  std::vector<bool> awaiting_;
  std::vector<std::optional<FetchedRange>> fetched_;
  std::size_t outstanding_ = 0;
};

}  // namespace mendel::core
