#include "src/net/message.h"

#include "src/common/stopwatch.h"

namespace mendel::net {

std::string describe(const Message& message) {
  return "message{type=" + std::to_string(message.type) +
         ", request_id=" + std::to_string(message.request_id) +
         ", from=" + std::to_string(message.from) + ", " +
         std::to_string(message.payload.size()) + " payload bytes}";
}

void Context::send(NodeId to, std::uint32_t type, std::uint64_t request_id,
                   std::vector<std::uint8_t> payload) {
  Message message;
  message.from = self_;
  message.to = to;
  message.type = type;
  message.request_id = request_id;
  message.payload = std::move(payload);
  transport_->send(std::move(message));
}

double Transport::now() const { return monotonic_seconds(); }

}  // namespace mendel::net
