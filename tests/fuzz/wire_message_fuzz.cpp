// Fuzz harness: wire-message payload decoding.
//
// Input shape (structure-aware): byte 0 selects the payload type, the rest
// is the payload buffer handed to decode_payload<T>. This mirrors exactly
// what a StorageNode does with a frame that arrived off the transport —
// the message type routes to a typed decode of attacker-controlled bytes.
//
// Contract: malformed bytes raise DecodeError (and nothing else);
// well-formed bytes decode to a value whose re-encoding reproduces the
// input byte-for-byte (strict framing + canonical field encodings).
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/error.h"
#include "src/mendel/protocol.h"
#include "tests/fuzz/fuzz_util.h"
#include "tests/fuzz/wire_selectors.h"

namespace {

using mendel::fuzz::die;
using mendel::fuzz::die_exception;

constexpr const char* kHarness = "wire_message_fuzz";

template <typename Payload>
void fuzz_one(std::span<const std::uint8_t> bytes) {
  Payload decoded;
  try {
    decoded = mendel::core::decode_payload<Payload>(bytes);
  } catch (const mendel::DecodeError&) {
    return;  // malformed: the one allowed outcome
  } catch (const std::exception& e) {
    die_exception(kHarness, e);
  }
  std::vector<std::uint8_t> reencoded;
  try {
    reencoded = mendel::core::encode_payload(decoded);
  } catch (const std::exception& e) {
    die_exception(kHarness, e);
  }
  if (reencoded.size() != bytes.size() ||
      !std::equal(reencoded.begin(), reencoded.end(), bytes.begin())) {
    die(kHarness, "decode∘encode is not the identity on accepted bytes");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::span<const std::uint8_t> payload(data + 1, size - 1);
  mendel::fuzz::with_wire_payload(
      data[0], [&]<typename Payload>() { fuzz_one<Payload>(payload); });
  return 0;
}
