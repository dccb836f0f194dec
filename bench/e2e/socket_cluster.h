// In-process socket deployment for the socket-cached workload: daemon
// SocketTransport + core::NodeHost pairs serving every storage node over
// Unix-domain sockets, wired the way mendel-node processes are, so the
// client reaches them only through real frames and the kNodeInit protocol.
//
// The endpoints live in a private mkdtemp directory that the destructor
// removes with every socket file in it (SocketTransport::stop() closes the
// listeners but leaves the files behind).
//
// Each daemon's transport is handed to its NodeHost through TimingTransport,
// which wraps every hosted actor so the bench can time handlers per message
// type and keep sample payloads for codec timing — measured from outside,
// without instrumenting the library.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mendel/node_host.h"
#include "src/net/socket_transport.h"
#include "src/obs/metrics.h"

namespace mendel::bench {

// The query-dataflow message types whose handlers the bench times.
inline constexpr std::array<std::uint32_t, 7> kDataflowTypes = {
    core::kQueryRequest,     core::kGroupQuery,  core::kNodeSearch,
    core::kNodeSearchResult, core::kGroupResult, core::kFetchRange,
    core::kFetchRangeResult};
const char* dataflow_type_name(std::uint32_t type);

// Per-actor handler timing. Written only by the actor's dispatch thread;
// read once every daemon is idle.
struct HandlerSamples {
  // Handler wall time in microseconds, indexed like kDataflowTypes.
  std::array<std::vector<double>, kDataflowTypes.size()> handler_us;
  // Every 16th kGroupResult / kFetchRangeResult payload, up to a cap.
  std::vector<std::vector<std::uint8_t>> group_results;
  std::vector<std::vector<std::uint8_t>> fetch_results;
  std::uint64_t seen_group_results = 0;
  std::uint64_t seen_fetch_results = 0;
};

class SocketCluster {
 public:
  // `total_nodes` node ids spread round-robin over `daemons` daemons, all
  // recording into `registry`. Socket files go in a fresh directory under
  // `scratch_dir` (keep it relative: sun_path holds 108 bytes). Throws
  // IoError when the directory cannot be made or a daemon cannot bind.
  SocketCluster(std::size_t total_nodes, std::size_t daemons,
                const std::string& scratch_dir,
                obs::MetricsRegistry* registry);
  ~SocketCluster();

  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  const std::vector<std::string>& endpoints() const { return endpoints_; }

  // Handler timing is recorded only while on (the measured window).
  void set_recording(bool on) { recording_.store(on); }
  // Blocks until every daemon's mailboxes are drained.
  void wait_idle();

  // The daemons' transports (their traffic and error counters).
  const std::vector<std::unique_ptr<net::SocketTransport>>& transports()
      const {
    return transports_;
  }
  // Every hosted StorageNode (after the client's kNodeInit).
  std::vector<const core::StorageNode*> nodes() const;
  // Handler samples of every hosted actor (call when idle).
  std::vector<const HandlerSamples*> samples() const;

 private:
  class TimingActor;
  class TimingTransport;

  // Removes the socket files and their directory. Declared before the
  // transports, so it runs after they have closed their listeners.
  struct SocketDir {
    SocketDir() = default;
    SocketDir(const SocketDir&) = delete;
    SocketDir& operator=(const SocketDir&) = delete;
    ~SocketDir();

    std::string path;
    std::vector<std::string> files;
  };

  std::size_t total_nodes_;
  SocketDir dir_;
  std::vector<std::string> endpoints_;
  std::atomic<bool> recording_{false};
  // Declared before the transports so they outlive the dispatch threads
  // that call into them (the transports' destructors stop and join).
  std::vector<std::unique_ptr<TimingTransport>> wrappers_;
  std::vector<std::unique_ptr<core::NodeHost>> hosts_;
  std::vector<std::unique_ptr<net::SocketTransport>> transports_;
};

}  // namespace mendel::bench
