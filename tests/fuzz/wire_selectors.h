// Input shape of the wire_message_fuzz harness: byte 0 selects the payload
// type, the rest is the payload. Shared by the harness and the tier-1
// corpus test (tests/codec_corpus_test.cpp) so both read the checked-in
// seeds the same way; tools/fuzz_seed_gen writes seeds with these
// selector values.
#pragma once

#include <cstdint>

#include "src/mendel/protocol.h"

namespace mendel::fuzz {

inline constexpr std::uint8_t kWireSelectors = 14;

// Calls fn.template operator()<Payload>() for the payload type `selector`
// names (modulo kWireSelectors, so every byte value selects a type).
template <typename Fn>
void with_wire_payload(std::uint8_t selector, Fn&& fn) {
  using namespace mendel::core;
  switch (selector % kWireSelectors) {
    case 0: fn.template operator()<StoreSequencePayload>(); break;
    case 1: fn.template operator()<InsertBlocksPayload>(); break;
    case 2: fn.template operator()<QueryRequestPayload>(); break;
    case 3: fn.template operator()<GroupQueryPayload>(); break;
    case 4: fn.template operator()<NodeSearchPayload>(); break;
    case 5: fn.template operator()<NodeSearchResultPayload>(); break;
    case 6: fn.template operator()<GroupResultPayload>(); break;
    case 7: fn.template operator()<FetchRangePayload>(); break;
    case 8: fn.template operator()<FetchRangeResultPayload>(); break;
    case 9: fn.template operator()<QueryResultPayload>(); break;
    case 10: fn.template operator()<TraceReportPayload>(); break;
    case 11: fn.template operator()<NodeInitPayload>(); break;
    case 12: fn.template operator()<SetNodeDownPayload>(); break;
    case 13: fn.template operator()<SetResiduesPayload>(); break;
  }
}

}  // namespace mendel::fuzz
