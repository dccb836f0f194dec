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

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/mendel/protocol.h"
#include "src/net/message.h"

namespace mendel::core {

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
// pending query owns one stage and supplies its role's extension body.
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

  // Admits one reply and runs `extend(token)` for it: inline under virtual
  // time (pool compute would escape the virtual clock) or without a pool,
  // else as a pool task. Returns true when it was the last reply.
  bool accept(FetchRangeResultPayload reply, net::Context& ctx,
              ThreadPool* pool, std::function<void(std::size_t)> extend);

  const FetchedRange& range(std::size_t token) const {
    return *fetched_[token];
  }

  // Joins every extension task; call before reading or erasing the pending
  // entry the tasks reference (reply assembly, kCancelQuery).
  void join();

 private:
  std::vector<PlannedFetch> plan_;
  std::vector<bool> awaiting_;
  std::vector<std::optional<FetchedRange>> fetched_;
  std::size_t outstanding_ = 0;
  std::vector<std::future<void>> tasks_;
};

}  // namespace mendel::core
