// NodeHost: hosts StorageNodes behind a message-driven init protocol.
//
// In TransportMode::kSocket the coordinator process cannot construct the
// cluster's StorageNodes directly — they live in mendel-node daemon
// processes. A NodeHost owns the server side of that split: it registers
// one actor per hosted node id on a transport and materializes the actual
// StorageNodes when a kNodeInit message arrives, rebuilding the shared
// state (topology, distance matrix, vp-prefix routing tree) that
// Client::spawn_nodes would otherwise wire in by pointer.
//
// Init is generation-checked: the coordinator broadcasts kNodeInit to every
// node id with a fixed generation per index epoch, so a host that already
// built that generation ignores the re-send (heal_node re-inits a possibly
// restarted daemon; one that never died must keep its data), while a fresh
// process — first start or post-SIGKILL restart — builds from the payload.
// Pre-init, every message except kNodeInit is dropped. Settle probes never
// reach the host (the transport's runtime answers them), so a coordinator
// settling against a half-initialized cluster still completes.
//
// The same class backs the in-process socket parity tests (several
// NodeHosts on loopback transports in one test binary) and the mendel-node
// daemon (tools/mendel_node_main.cpp).
#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/mendel/protocol.h"
#include "src/mendel/storage_node.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"

namespace mendel::core {

struct NodeHostOptions {
  // Node ids this process hosts.
  std::vector<net::NodeId> node_ids;
  // Settings of every hosted node. kNodeInit does not carry them: they are
  // deployment-local, while the index-shape knobs all travel in-band.
  NodeSettings node;
  // Shared metrics registry for the hosted nodes' histograms and counters
  // (required).
  obs::MetricsRegistry* metrics = nullptr;
};

class NodeHost {
 public:
  // Registers one actor per hosted id on `transport` (which must not have
  // started yet). The host must outlive the transport's dispatch threads —
  // destroy the transport (or stop it) first.
  NodeHost(net::Transport* transport, NodeHostOptions options);
  ~NodeHost();

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  // Nonzero once a kNodeInit was applied.
  std::uint64_t generation() const MENDEL_EXCLUDES(mu_);
  // The hosted StorageNode, or nullptr before init (test introspection;
  // the dispatch threads may be mutating it concurrently).
  StorageNode* node(net::NodeId id) MENDEL_EXCLUDES(mu_);

 private:
  class HostActor;

  void handle(net::NodeId id, const net::Message& message, net::Context& ctx)
      MENDEL_EXCLUDES(mu_);
  void apply_init(const NodeInitPayload& payload) MENDEL_EXCLUDES(mu_);

  NodeHostOptions options_;

  // mu_ orders (re)initialization against dispatch: apply_init rebuilds
  // the node set under the exclusive lock; per-node dispatch holds the
  // shared lock (node handlers themselves stay single-threaded per node —
  // each id has its own dispatch thread).
  mutable std::shared_mutex mu_;
  std::uint64_t generation_ MENDEL_GUARDED_BY(mu_) = 0;
  std::unique_ptr<cluster::Topology> topology_ MENDEL_GUARDED_BY(mu_);
  std::unique_ptr<score::DistanceMatrix> distance_ MENDEL_GUARDED_BY(mu_);
  std::unique_ptr<vpt::VpPrefixTree> prefix_tree_ MENDEL_GUARDED_BY(mu_);
  std::map<net::NodeId, std::unique_ptr<StorageNode>> nodes_
      MENDEL_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<HostActor>> actors_;
};

}  // namespace mendel::core
