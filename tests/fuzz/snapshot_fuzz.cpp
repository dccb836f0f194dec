// Fuzz harness: index-snapshot decoding.
//
// Drives core::read_snapshot over arbitrary bytes — the one snapshot
// reader, which backs Client::load_index and the mendel_verify CLI —
// covering the v3 container, the per-group mendel-node-v2 shard sections
// (including bit-packed arena rows), and the embedded vp-prefix routing
// tree.
//
// Contract: malformed bytes raise ParseError (DecodeError included) or
// InvalidArgument; accepted bytes re-encode byte-identically through
// core::write_snapshot, and every shard's packed rows materialize into
// full windows without tripping anything but DecodeError.
#include <cstdint>
#include <vector>

#include "src/common/error.h"
#include "src/mendel/snapshot.h"
#include "tests/fuzz/fuzz_util.h"

namespace {

using mendel::fuzz::die;
using mendel::fuzz::die_exception;

constexpr const char* kHarness = "snapshot_fuzz";

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  mendel::core::Snapshot snapshot;
  try {
    snapshot = mendel::core::read_snapshot(bytes);
  } catch (const mendel::ParseError&) {
    return 0;  // truncated / corrupt container
  } catch (const mendel::InvalidArgument&) {
    return 0;  // out-of-range structural parameter
  } catch (const std::exception& e) {
    die_exception(kHarness, e);
  }

  std::vector<std::uint8_t> reencoded;
  try {
    reencoded = mendel::core::write_snapshot(snapshot);
  } catch (const std::exception& e) {
    die_exception(kHarness, e);
  }
  if (reencoded != bytes) {
    die(kHarness, "write_snapshot(read_snapshot(b)) != b on accepted bytes");
  }

  for (const auto& shard : snapshot.shards) {
    try {
      (void)shard.materialize_blocks();
    } catch (const mendel::DecodeError&) {
      // A structurally valid shard can still carry undecodable packed
      // rows; rejecting them with a structured error is the contract.
    } catch (const std::exception& e) {
      die_exception(kHarness, e);
    }
  }
  return 0;
}
