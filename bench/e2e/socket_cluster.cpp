#include "bench/e2e/socket_cluster.h"

#include <unistd.h>

#include <chrono>
#include <thread>

#include "src/common/error.h"

namespace mendel::bench {

const char* dataflow_type_name(std::uint32_t type) {
  switch (type) {
    case core::kQueryRequest: return "query_request";
    case core::kGroupQuery: return "group_query";
    case core::kNodeSearch: return "node_search";
    case core::kNodeSearchResult: return "node_search_result";
    case core::kGroupResult: return "group_result";
    case core::kFetchRange: return "fetch_range";
    case core::kFetchRangeResult: return "fetch_range_result";
    default: return "other";
  }
}

namespace {

constexpr std::size_t kPayloadCap = 256;
constexpr std::uint64_t kPayloadEvery = 16;

int type_slot(std::uint32_t type) {
  for (std::size_t i = 0; i < kDataflowTypes.size(); ++i) {
    if (kDataflowTypes[i] == type) return static_cast<int>(i);
  }
  return -1;
}

void keep_sample(std::vector<std::vector<std::uint8_t>>& kept,
                 std::uint64_t& seen, const net::Message& message) {
  if (seen++ % kPayloadEvery == 0 && kept.size() < kPayloadCap) {
    kept.push_back(message.payload);
  }
}

}  // namespace

class SocketCluster::TimingActor final : public net::Actor {
 public:
  TimingActor(net::Actor* inner, const std::atomic<bool>* recording)
      : inner_(inner), recording_(recording) {}

  void handle(const net::Message& message, net::Context& ctx) override {
    const int slot = type_slot(message.type);
    if (slot < 0 || !recording_->load(std::memory_order_relaxed)) {
      inner_->handle(message, ctx);
      return;
    }
    if (message.type == core::kGroupResult) {
      keep_sample(samples_.group_results, samples_.seen_group_results,
                  message);
    } else if (message.type == core::kFetchRangeResult) {
      keep_sample(samples_.fetch_results, samples_.seen_fetch_results,
                  message);
    }
    const auto start = std::chrono::steady_clock::now();
    inner_->handle(message, ctx);
    samples_.handler_us[static_cast<std::size_t>(slot)].push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  const HandlerSamples& samples() const { return samples_; }

 private:
  net::Actor* inner_;
  const std::atomic<bool>* recording_;
  HandlerSamples samples_;
};

// Forwards everything to the daemon's SocketTransport, interposing a
// TimingActor on each registration.
class SocketCluster::TimingTransport final : public net::Transport {
 public:
  TimingTransport(net::SocketTransport* inner,
                  const std::atomic<bool>* recording)
      : inner_(inner), recording_(recording) {}

  void register_actor(net::NodeId id, net::Actor* actor) override {
    actors_.push_back(std::make_unique<TimingActor>(actor, recording_));
    inner_->register_actor(id, actors_.back().get());
  }
  void send(net::Message message) override {
    inner_->send(std::move(message));
  }
  net::NetworkStats stats() const override { return inner_->stats(); }
  net::FaultInjector* fault_injector() override {
    return inner_->fault_injector();
  }
  void begin_query_stats(std::uint64_t query_id) override {
    inner_->begin_query_stats(query_id);
  }
  net::NetworkStats take_query_stats(std::uint64_t query_id) override {
    return inner_->take_query_stats(query_id);
  }

  const std::vector<std::unique_ptr<TimingActor>>& actors() const {
    return actors_;
  }

 private:
  net::SocketTransport* inner_;
  const std::atomic<bool>* recording_;
  std::vector<std::unique_ptr<TimingActor>> actors_;
};

SocketCluster::SocketCluster(std::size_t total_nodes, std::size_t daemons,
                             const std::string& scratch_dir,
                             obs::MetricsRegistry* registry)
    : total_nodes_(total_nodes) {
  std::string pattern = scratch_dir + "/sock.XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw IoError("SocketCluster: mkdtemp failed for " + pattern);
  }
  dir_.path = pattern;
  for (std::size_t id = 0; id < total_nodes; ++id) {
    dir_.files.push_back(dir_.path + "/" + std::to_string(id));
    endpoints_.push_back("unix:" + dir_.files.back());
  }
  for (std::size_t daemon = 0; daemon < daemons; ++daemon) {
    net::SocketOptions options;
    options.endpoints = endpoints_;
    transports_.push_back(std::make_unique<net::SocketTransport>(options));
    wrappers_.push_back(std::make_unique<TimingTransport>(
        transports_.back().get(), &recording_));
    core::NodeHostOptions host_options;
    host_options.metrics = registry;
    for (std::size_t id = daemon; id < total_nodes; id += daemons) {
      host_options.node_ids.push_back(static_cast<net::NodeId>(id));
    }
    hosts_.push_back(std::make_unique<core::NodeHost>(
        wrappers_.back().get(), std::move(host_options)));
  }
  // Daemons start concurrently, like separate processes: each start()
  // dials peers that only listen once their own start() runs.
  std::vector<std::thread> starters;
  for (auto& transport : transports_) {
    starters.emplace_back([&transport] { transport->start(); });
  }
  for (auto& starter : starters) starter.join();
}

SocketCluster::~SocketCluster() = default;

SocketCluster::SocketDir::~SocketDir() {
  for (const auto& file : files) ::unlink(file.c_str());
  if (!path.empty()) ::rmdir(path.c_str());
}

void SocketCluster::wait_idle() {
  for (auto& transport : transports_) transport->wait_local_idle();
}

std::vector<const core::StorageNode*> SocketCluster::nodes() const {
  std::vector<const core::StorageNode*> out;
  for (std::size_t daemon = 0; daemon < hosts_.size(); ++daemon) {
    for (std::size_t id = daemon; id < total_nodes_; id += hosts_.size()) {
      if (const auto* node =
              hosts_[daemon]->node(static_cast<net::NodeId>(id))) {
        out.push_back(node);
      }
    }
  }
  return out;
}

std::vector<const HandlerSamples*> SocketCluster::samples() const {
  std::vector<const HandlerSamples*> out;
  for (const auto& wrapper : wrappers_) {
    for (const auto& actor : wrapper->actors()) {
      out.push_back(&actor->samples());
    }
  }
  return out;
}

}  // namespace mendel::bench
