#include "src/mendel/protocol.h"

namespace mendel::core {

std::vector<std::uint8_t> encode_group_query(
    const std::vector<std::uint8_t>& prefix,
    const std::vector<Subquery>& subqueries) {
  CodecWriter w;
  w.raw(prefix);
  w(subqueries);
  return w.take();
}

void validate_codes(std::span<const seq::Code> codes, std::size_t cardinality,
                    const char* what) {
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] >= cardinality) {
      throw DecodeError(std::string(what) + ": residue code " +
                        std::to_string(codes[i]) + " at position " +
                        std::to_string(i) + " outside alphabet (cardinality " +
                        std::to_string(cardinality) + ")");
    }
  }
}

void validate_anchor(const Anchor& anchor) {
  if (anchor.q_end < anchor.q_begin || anchor.s_end < anchor.s_begin) {
    throw DecodeError("anchor: inverted interval (q " +
                      std::to_string(anchor.q_begin) + ".." +
                      std::to_string(anchor.q_end) + ", s " +
                      std::to_string(anchor.s_begin) + ".." +
                      std::to_string(anchor.s_end) + ")");
  }
}

void validate_seed(const Seed& seed) {
  const std::uint64_t s_end =
      static_cast<std::uint64_t>(seed.subject_start) + seed.length;
  const std::uint64_t q_end =
      static_cast<std::uint64_t>(seed.query_offset) + seed.length;
  if (s_end > 0xffffffffULL || q_end > 0xffffffffULL) {
    throw DecodeError("seed: window wraps 32-bit offsets (subject_start " +
                      std::to_string(seed.subject_start) + ", query_offset " +
                      std::to_string(seed.query_offset) + ", length " +
                      std::to_string(seed.length) + ")");
  }
}

}  // namespace mendel::core
