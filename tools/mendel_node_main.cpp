// mendel-node: the storage-daemon half of a socket-mode Mendel cluster.
//
// Hosts one or more storage node ids behind a SocketTransport and serves
// until SIGTERM/SIGINT. The daemon starts empty: the coordinator process
// (core::Client with --transport=socket) pushes topology, routing tree, and
// data over the wire (kNodeInit + the indexing stream), so restarting a
// killed daemon and re-running the coordinator's heal path repopulates it
// without any local state. See docs/architecture.md "Deployment".
//
// Usage:
//   mendel-node --nodes 0,1,2
//       --endpoints unix:/tmp/n0.sock,unix:/tmp/n1.sock,...
//       [--search-threads N] [--arena-budget BYTES]
//       [--heartbeat-interval S] [--heartbeat-timeout S]
//       [--connect-timeout S]
//
// --nodes takes a comma-separated list of node ids with optional a-b
// ranges ("0-4,10"). --endpoints (or the MENDEL_ENDPOINTS environment
// variable) lists one endpoint string per node id, in id order, shared
// verbatim by every process in the cluster.
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

// "0-4,10,12" -> {0,1,2,3,4,10,12}
std::vector<mendel::net::NodeId> parse_node_ids(const std::string& csv) {
  std::vector<mendel::net::NodeId> ids;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string item = csv.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t dash = item.find('-');
    try {
      if (dash == std::string::npos) {
        ids.push_back(static_cast<mendel::net::NodeId>(std::stoul(item)));
      } else {
        const auto lo = std::stoul(item.substr(0, dash));
        const auto hi = std::stoul(item.substr(dash + 1));
        mendel::require(lo <= hi, "--nodes range '" + item + "' is inverted");
        for (auto id = lo; id <= hi; ++id) {
          ids.push_back(static_cast<mendel::net::NodeId>(id));
        }
      }
    } catch (const std::logic_error&) {
      throw mendel::InvalidArgument("--nodes: cannot parse '" + item + "'");
    }
  }
  mendel::require(!ids.empty(), "--nodes lists no node ids");
  return ids;
}

void print_usage(std::ostream& out) {
  out << "mendel-node — storage daemon for a socket-mode Mendel cluster\n\n"
         "  mendel-node --nodes IDS --endpoints EP0,EP1,...\n\n"
         "  --nodes IDS            node ids to host: comma list with a-b\n"
         "                         ranges, e.g. 0-4 or 0,1,7\n"
         "  --endpoints LIST       endpoint per node id, in id order:\n"
         "                         host:port (TCP) or unix:/path; the\n"
         "                         MENDEL_ENDPOINTS env var overrides\n"
         "  --search-threads N     worker threads for intra-node subquery\n"
         "                         fan-out (default 0 = serial)\n"
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
    core::NodeHostOptions host_options;
    host_options.node_ids = parse_node_ids(flags.str_required("nodes"));
    host_options.search_threads =
        static_cast<unsigned>(flags.integer("search-threads", 0));
    host_options.node.arena_resident_budget =
        static_cast<std::size_t>(flags.integer("arena-budget", 0));
    host_options.metrics = &registry;

    net::SocketOptions socket;
    socket.endpoints = net::endpoints_from_env(
        net::parse_endpoint_list(flags.str("endpoints", "")));
    socket.heartbeat_interval = flags.real("heartbeat-interval", 1.0);
    socket.heartbeat_timeout =
        flags.real("heartbeat-timeout", socket.heartbeat_timeout);
    socket.connect_timeout = flags.real("connect-timeout", 5.0);
    flags.reject_unconsumed();
    require(!socket.endpoints.empty(),
            "no endpoints: pass --endpoints or set MENDEL_ENDPOINTS");
    for (net::NodeId id : host_options.node_ids) {
      require(id < socket.endpoints.size(),
              "--nodes id " + std::to_string(id) +
                  " has no endpoint (list has " +
                  std::to_string(socket.endpoints.size()) + " entries)");
    }

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
