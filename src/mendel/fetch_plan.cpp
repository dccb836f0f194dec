#include "src/mendel/fetch_plan.h"

#include <algorithm>
#include <numeric>

#include "src/common/error.h"

namespace mendel::core {

std::vector<CoalescedRange> coalesce_ranges(
    const std::vector<RangeRequest>& requests) {
  std::vector<std::uint32_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const RangeRequest& ra = requests[a];
              const RangeRequest& rb = requests[b];
              if (ra.sequence != rb.sequence) return ra.sequence < rb.sequence;
              if (ra.start != rb.start) return ra.start < rb.start;
              if (ra.length != rb.length) return ra.length < rb.length;
              return a < b;
            });

  std::vector<CoalescedRange> plan;
  for (std::uint32_t idx : order) {
    const RangeRequest& req = requests[idx];
    // 64-bit ends: start + length may overflow 32 bits for hostile inputs.
    const std::uint64_t req_end =
        static_cast<std::uint64_t>(req.start) + req.length;
    if (!plan.empty() && plan.back().sequence == req.sequence &&
        static_cast<std::uint64_t>(plan.back().start) + plan.back().length >=
            req.start) {
      CoalescedRange& cur = plan.back();
      const std::uint64_t cur_end =
          static_cast<std::uint64_t>(cur.start) + cur.length;
      const std::uint64_t merged_end = std::max(cur_end, req_end);
      cur.length = saturate_length(merged_end - cur.start);
      cur.members.push_back(idx);
      continue;
    }
    CoalescedRange fresh;
    fresh.sequence = req.sequence;
    fresh.start = req.start;
    fresh.length = req.length;
    fresh.members.push_back(idx);
    plan.push_back(std::move(fresh));
  }
  for (CoalescedRange& range : plan) {
    std::sort(range.members.begin(), range.members.end());
  }
  return plan;
}

std::size_t FetchStage::start(std::vector<PlannedFetch> plan,
                              FetchPurpose purpose, std::uint64_t query_id,
                              const obs::TraceContext& trace,
                              net::Context& ctx) {
  plan_ = std::move(plan);
  awaiting_.assign(plan_.size(), false);
  fetched_.assign(plan_.size(), std::nullopt);
  FetchRangePayload fetch;
  fetch.purpose = static_cast<std::uint8_t>(purpose);
  fetch.trace = trace;
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const PlannedFetch& range = plan_[i];
    if (range.home == net::kClientNode) continue;
    fetch.token = static_cast<std::uint32_t>(i);
    fetch.sequence = range.sequence;
    fetch.start = range.start;
    fetch.length = range.length;
    ctx.send(range.home, kFetchRange, query_id, encode_payload(fetch));
    awaiting_[i] = true;
    ++outstanding_;
  }
  return outstanding_;
}

std::size_t FetchStage::accept(FetchRangeResultPayload reply) {
  const std::size_t token = reply.token;
  if (token >= plan_.size() || !awaiting_[token] ||
      reply.sequence != plan_[token].sequence) {
    throw DecodeError("fetch_range_result: token " + std::to_string(token) +
                      " for sequence " + std::to_string(reply.sequence) +
                      " was never issued or is already answered");
  }
  awaiting_[token] = false;
  --outstanding_;
  fetched_[token] = FetchedRange{reply.start, std::move(reply.sequence_name),
                                 std::move(reply.codes)};
  return token;
}

}  // namespace mendel::core
