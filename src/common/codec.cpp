// Out-of-line codec helpers (the cold error paths) for codec.h.
#include "src/common/codec.h"

namespace mendel {

void CodecReader::truncated(std::size_t n) const {
  throw DecodeError("CodecReader: truncated buffer (need " +
                    std::to_string(n) + " bytes, have " +
                    std::to_string(remaining()) + ")");
}

}  // namespace mendel
