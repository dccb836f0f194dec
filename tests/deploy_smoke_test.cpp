// Multi-process deployment smoke test: real mendel-node daemon processes,
// a socket-mode coordinator, quickstart-sized queries, and kill-a-process
// chaos. This is the only tier that crosses genuine process boundaries —
// everything in-process (including the socket parity suite) shares one
// address space, so only here do SIGKILL, daemon restart, and the
// heartbeat/heal recovery path run against the real thing.
//
// The mendel-node binary path is injected by CMake as MENDEL_NODE_BIN.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/mendel/client.h"
#include "src/net/socket_transport.h"
#include "src/workload/generator.h"

#ifndef MENDEL_NODE_BIN
#error "MENDEL_NODE_BIN must be defined (see tests/CMakeLists.txt)"
#endif

namespace mendel {
namespace {

using namespace std::chrono_literals;

workload::DatabaseSpec spec() {
  workload::DatabaseSpec s;
  s.families = 4;
  s.members_per_family = 3;
  s.background_sequences = 6;
  s.min_length = 150;
  s.max_length = 350;
  s.seed = 77;
  return s;
}

std::vector<seq::Sequence> probes(const seq::SequenceStore& store) {
  std::vector<seq::Sequence> queries;
  for (std::size_t donor : {2u, 5u, 9u}) {
    const auto region = store.at(donor).window(5, 110);
    queries.emplace_back(store.alphabet(),
                         "probe" + std::to_string(queries.size()),
                         std::vector<seq::Code>{region.begin(), region.end()});
  }
  return queries;
}

core::ClientOptions base_options() {
  core::ClientOptions options;
  options.topology.num_groups = 2;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  return options;
}

// One mendel-node child process.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& nodes, const std::string& endpoints) {
    pid_ = ::fork();
    if (pid_ == 0) {
      const std::string nodes_flag = "--nodes=" + nodes;
      const std::string endpoints_flag = "--endpoints=" + endpoints;
      ::execl(MENDEL_NODE_BIN, "mendel-node", nodes_flag.c_str(),
              endpoints_flag.c_str(), "--heartbeat-interval=0.1",
              "--heartbeat-timeout=0.5", "--connect-timeout=10",
              static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
  }
  ~DaemonProcess() { terminate(); }

  void kill9() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    reap();
  }
  void terminate() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    reap();
  }
  pid_t pid() const { return pid_; }

 private:
  void reap() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  pid_t pid_ = -1;
};

std::string join(const std::vector<std::string>& items) {
  std::string csv;
  for (const auto& item : items) {
    if (!csv.empty()) csv += ",";
    csv += item;
  }
  return csv;
}

// Every hit in `outcome` also appears in `reference` (by subject): after a
// daemon restart its shard is empty, so recall may shrink, but the
// surviving shards must not invent hits.
void expect_hits_subset(const core::QueryOutcome& outcome,
                        const core::QueryOutcome& reference) {
  for (const auto& hit : outcome.hits) {
    bool found = false;
    for (const auto& ref : reference.hits) {
      found |= ref.subject_id == hit.subject_id;
    }
    EXPECT_TRUE(found) << "unexpected subject " << hit.subject_id;
  }
}

TEST(DeploySmoke, TwoDaemonClusterParityKillRestartHeal) {
  const auto store = workload::generate_database(spec());
  const auto queries = probes(store);

  // Simulator baseline for the parity half of the smoke.
  core::Client sim_client(base_options());
  sim_client.index(store);
  const auto sim_outcomes = sim_client.query_batch(queries);
  for (const auto& outcome : sim_outcomes) {
    ASSERT_TRUE(outcome.completed);
    ASSERT_FALSE(outcome.hits.empty());
  }

  // 4 nodes over 2 daemons: daemon A hosts group 0 (nodes 0,1), daemon B
  // hosts group 1 (nodes 2,3).
  std::vector<std::string> endpoints;
  for (int id = 0; id < 4; ++id) {
    endpoints.push_back("unix:" + testing::TempDir() + "mendel_smoke_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(id) + ".sock");
  }
  DaemonProcess daemon_a("0,1", join(endpoints));
  auto daemon_b =
      std::make_unique<DaemonProcess>("2-3", join(endpoints));
  ASSERT_GT(daemon_a.pid(), 0);
  ASSERT_GT(daemon_b->pid(), 0);

  auto options = base_options();
  options.runtime.transport_mode = core::TransportMode::kSocket;
  options.runtime.socket.endpoints = endpoints;
  options.runtime.socket.heartbeat_interval = 0.1;
  options.runtime.socket.heartbeat_timeout = 0.6;
  options.runtime.query_timeout = 5.0;
  options.runtime.socket.settle_timeout = 10.0;
  options.runtime.socket.connect_timeout = 15.0;
  core::Client client(options);
  client.index(store);

  // Healthy cluster: ranked hits must match the simulator exactly.
  const auto healthy = client.query_batch(queries);
  ASSERT_EQ(healthy.size(), sim_outcomes.size());
  for (std::size_t i = 0; i < healthy.size(); ++i) {
    ASSERT_TRUE(healthy[i].completed) << "query " << i;
    ASSERT_EQ(healthy[i].hits.size(), sim_outcomes[i].hits.size());
    for (std::size_t j = 0; j < healthy[i].hits.size(); ++j) {
      EXPECT_EQ(healthy[i].hits[j].subject_id,
                sim_outcomes[i].hits[j].subject_id);
      EXPECT_EQ(healthy[i].hits[j].alignment.hsp.score,
                sim_outcomes[i].hits[j].alignment.hsp.score);
      EXPECT_DOUBLE_EQ(healthy[i].hits[j].evalue,
                       sim_outcomes[i].hits[j].evalue);
    }
  }

  // Chaos: SIGKILL daemon B with queries in flight. Every in-flight query
  // must terminate — completed, or cancelled cleanly by the stall
  // machinery — within the query timeout; nothing may hang.
  std::vector<core::QueryTicket> inflight;
  for (const auto& query : queries) inflight.push_back(client.submit(query));
  daemon_b->kill9();
  for (const auto& ticket : inflight) {
    const auto outcome = client.wait(ticket);
    if (outcome.completed) {
      EXPECT_FALSE(outcome.hits.empty());
    } else {
      EXPECT_TRUE(outcome.hits.empty());  // clean cancel, no partial junk
    }
  }

  // The heartbeat monitor notices the silent peer without any manual
  // fail_node (both of daemon B's nodes share its connection).
  const auto hb_deadline = std::chrono::steady_clock::now() + 10s;
  const net::FaultInjector& membership = client.fault_injector();
  while ((!membership.node_down(2) || !membership.node_down(3)) &&
         std::chrono::steady_clock::now() < hb_deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(membership.node_down(2));
  EXPECT_TRUE(membership.node_down(3));
  EXPECT_GE(client.metrics().counter("net.heartbeats_missed"), 1u);

  // Make the down state explicit membership (mirrors the operator flow:
  // monitor alerts, operator or supervisor confirms the failure).
  client.fail_node(2);
  client.fail_node(3);

  // Restart the daemon on the same endpoints (fresh process, empty
  // shards) and heal. heal_node re-inits the restarted daemon over the
  // wire and flushes deferred cancels.
  daemon_b = std::make_unique<DaemonProcess>("2-3", join(endpoints));
  ASSERT_GT(daemon_b->pid(), 0);
  client.heal_node(2);
  client.heal_node(3);

  // Queries complete again. Daemon B's shard died with the process, so
  // recall may drop, but every query must complete and no hit may be
  // fabricated.
  const auto recovered = client.query_batch(queries);
  ASSERT_EQ(recovered.size(), queries.size());
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_TRUE(recovered[i].completed) << "query " << i;
    expect_hits_subset(recovered[i], healthy[i]);
  }
  // Record how much recall the lost shard cost (informational — placement
  // decides which queries lose hits).
  std::size_t intact = 0;
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    intact += recovered[i].hits.size() == healthy[i].hits.size();
  }
  RecordProperty("queries_with_full_recall_after_restart",
                 static_cast<int>(intact));
  EXPECT_EQ(client.metrics().counter("net.handler_errors"), 0u);
}

}  // namespace
}  // namespace mendel
