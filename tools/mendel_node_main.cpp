// mendel-node: the storage-daemon half of a socket-mode Mendel cluster.
//
// Hosts one or more storage node ids behind a SocketTransport and serves
// until SIGTERM/SIGINT. Each hosted node runs all of its work on its own
// dispatch thread, so a daemon uses more cores by hosting more node ids
// (--nodes 0-3). The daemon starts empty: the coordinator process
// (core::Client with --transport=socket) pushes topology, routing tree, and
// data over the wire (kNodeInit + the indexing stream), so restarting a
// killed daemon and re-running the coordinator's heal path repopulates it
// without any local state. See docs/architecture.md "Deployment".
//
// Usage:
//   mendel-node --nodes 0,1,2
//       --endpoints unix:/tmp/n0.sock,unix:/tmp/n1.sock,...
//       [--arena-budget BYTES]
//       [--heartbeat-interval S] [--heartbeat-timeout S]
//       [--connect-timeout S]
//
// --nodes takes a comma-separated list of node ids with optional a-b
// ranges ("0-4,10"), each below the endpoint count. --endpoints (or the
// MENDEL_ENDPOINTS environment variable) lists one endpoint string per node
// id, in id order, shared verbatim by every process in the cluster.
#include <csignal>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/cli/flags.h"
#include "src/common/error.h"
#include "src/mendel/node_host.h"
#include "src/net/socket_transport.h"
#include "src/obs/metrics.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

void print_usage(std::ostream& out) {
  out << "mendel-node — storage daemon for a socket-mode Mendel cluster\n\n"
         "  mendel-node --nodes IDS --endpoints EP0,EP1,...\n\n"
         "  --nodes IDS            node ids to host: comma list with a-b\n"
         "                         ranges, e.g. 0-4 or 0,1,7; each id runs\n"
         "                         on its own thread, so host more ids to\n"
         "                         use more cores\n"
         "  --endpoints LIST       endpoint per node id, in id order:\n"
         "                         host:port (TCP) or unix:/path; the\n"
         "                         MENDEL_ENDPOINTS env var overrides\n"
         "  --arena-budget BYTES   resident budget for the window arena\n"
         "                         (default 0 = all in memory)\n"
         "  --heartbeat-interval S ping period for peer liveness\n"
         "                         (default 1; 0 disables)\n"
         "  --heartbeat-timeout S  silence threshold before a peer is\n"
         "                         considered down (default 2)\n"
         "  --connect-timeout S    startup dial budget per peer (default 5;\n"
         "                         peers missing after it are redialed\n"
         "                         lazily)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mendel;
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    const cli::Flags flags = cli::Flags::parse(args);
    if (flags.boolean("help")) {
      print_usage(std::cout);
      return 0;
    }

    // The hosted nodes' instruments: every daemon keeps its own registry.
    obs::MetricsRegistry registry;
    net::SocketOptions socket;
    socket.endpoints = net::endpoints_from_env(
        net::parse_endpoint_list(flags.str("endpoints", "")));
    socket.heartbeat_interval = flags.real("heartbeat-interval", 1.0);
    socket.heartbeat_timeout =
        flags.real("heartbeat-timeout", socket.heartbeat_timeout);
    socket.connect_timeout = flags.real("connect-timeout", 5.0);
    require(!socket.endpoints.empty(),
            "no endpoints: pass --endpoints or set MENDEL_ENDPOINTS");

    core::NodeHostOptions host_options;
    host_options.node_ids = net::parse_node_ids(flags.str_required("nodes"),
                                                socket.endpoints.size());
    host_options.node.arena_resident_budget =
        flags.integer_as<std::size_t>("arena-budget", 0);
    host_options.metrics = &registry;
    flags.reject_unconsumed();

    net::SocketTransport transport(socket);
    core::NodeHost host(&transport, host_options);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    transport.start();

    std::cerr << "mendel-node: serving " << host_options.node_ids.size()
              << " node(s), first endpoint "
              << socket.endpoints[host_options.node_ids.front()] << "\n";
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cerr << "mendel-node: shutting down\n";
    transport.stop();
    return 0;
  } catch (const Error& e) {
    std::cerr << "mendel-node: error: " << e.what() << "\n";
    return 2;
  }
}
