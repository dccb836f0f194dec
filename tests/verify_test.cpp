// Tests for the invariant-verification subsystem: the MENDEL_CHECK
// macros, vp-tree / prefix-tree / placement validators, snapshot audits
// with seeded corruption, and the wire-protocol round-trip self-check.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/error.h"
#include "src/mendel/client.h"
#include "src/mendel/protocol.h"
#include "src/verify/verify.h"
#include "src/vptree/dynamic_vptree.h"
#include "src/workload/generator.h"

namespace mendel {
namespace {

core::ClientOptions cluster_options(std::uint32_t groups = 4,
                                    std::uint32_t per_group = 3) {
  core::ClientOptions options;
  options.topology.num_groups = groups;
  options.topology.nodes_per_group = per_group;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 512;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  return options;
}

workload::DatabaseSpec database_spec() {
  workload::DatabaseSpec spec;
  spec.families = 4;
  spec.members_per_family = 3;
  spec.background_sequences = 6;
  spec.min_length = 120;
  spec.max_length = 260;
  spec.seed = 42;
  return spec;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

// Builds a small indexed cluster and returns its decoded snapshot view,
// so corruption tests can mutate plain data instead of doing byte
// surgery on the wire format.
core::Snapshot fresh_snapshot(const std::string& path) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  client.save_index(path);
  auto view = core::read_snapshot(read_file(path));
  std::remove(path.c_str());
  return view;
}

bool any_violation_contains(const std::vector<std::string>& violations,
                            const std::string& needle) {
  for (const std::string& violation : violations) {
    if (violation.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------- MENDEL_CHECK macros ----------

TEST(Check, CheckThrowsCheckErrorWithContext) {
  const int node = 7;
  try {
    MENDEL_CHECK(1 == 2, "node " << node << ": impossible branch");
    FAIL() << "MENDEL_CHECK(false) did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
    EXPECT_NE(what.find("node 7"), std::string::npos) << what;
  }
}

TEST(Check, CheckPassesWithoutEvaluatingMessage) {
  int evaluations = 0;
  auto costly = [&evaluations]() {
    ++evaluations;
    return std::string("context");
  };
  MENDEL_CHECK(1 == 1, costly());
  EXPECT_EQ(evaluations, 0) << "message built on the passing path";
}

TEST(Check, DcheckCompiledOnlyInCheckedBuilds) {
#ifdef MENDEL_CHECKED
  EXPECT_THROW(MENDEL_DCHECK(false, "checked-build invariant"), CheckError);
#else
  MENDEL_DCHECK(false, "stripped in unchecked builds");
#endif
}

// ---------- vp-tree validator ----------

// Metric whose behaviour can be corrupted after the build: scaling every
// distance after construction leaves the recorded mu radii and child
// intervals inadmissible, exactly the damage validate() must surface.
struct ScaledAbsMetric {
  const double* scale;
  double operator()(int a, int b) const {
    return static_cast<double>(a > b ? a - b : b - a) * *scale;
  }
};

TEST(VpTreeValidate, CleanTreeValidatesCleanAndCorruptMetricIsCaught) {
  double scale = 1.0;
  vpt::DynamicVpTree<int, ScaledAbsMetric> tree(
      ScaledAbsMetric{&scale}, vpt::DynamicVpTreeOptions{8, true, 2.0, 99});
  std::vector<int> items;
  for (int i = 0; i < 300; ++i) items.push_back((i * 37) % 1000);
  tree.insert_batch(items);
  for (int i = 0; i < 50; ++i) tree.insert(1000 + i * 13);
  EXPECT_TRUE(tree.validate().empty());

  // Re-scaling the metric invalidates every recorded radius: elements sit
  // at 3x their recorded vantage distances.
  scale = 3.0;
  const auto violations = tree.validate();
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(any_violation_contains(violations, "violates mu") ||
              any_violation_contains(violations, "outside recorded"))
      << violations.front();
  // The build metric (scale restored) audits clean again.
  scale = 1.0;
  EXPECT_TRUE(tree.validate().empty());
}

TEST(VpTreeValidate, ViolationListIsCapped) {
  double scale = 1.0;
  vpt::DynamicVpTree<int, ScaledAbsMetric> tree(
      ScaledAbsMetric{&scale}, vpt::DynamicVpTreeOptions{4, true, 2.0, 5});
  std::vector<int> items;
  for (int i = 0; i < 500; ++i) items.push_back(i);
  tree.insert_batch(items);
  scale = 10.0;
  EXPECT_LE(tree.validate(5).size(), 5u);
}

// ---------- live cluster audit ----------

TEST(ClusterAudit, IndexedClusterAuditsClean) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);

  EXPECT_TRUE(client.prefix_tree().validate().empty());
  const auto report = verify::audit_client(client);
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.nodes_audited, client.node_count());
  EXPECT_GT(report.blocks_audited, 0u);
  EXPECT_GT(report.sequences_audited, 0u);
}

TEST(ClusterAudit, SurvivesRebalanceAndIncrementalIndexing) {
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  client.add_node(1);

  workload::DatabaseSpec extra_spec = database_spec();
  extra_spec.families = 1;
  extra_spec.background_sequences = 2;
  extra_spec.seed = 777;
  client.add_sequences(workload::generate_database(extra_spec));

  const auto report = verify::audit_client(client);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(ClusterAudit, UnindexedClientIsReported) {
  core::Client client(cluster_options());
  EXPECT_FALSE(verify::audit_client(client).ok());
}

// ---------- snapshot audit + seeded corruption ----------

TEST(SnapshotAudit, RoundTripIsByteIdenticalAndAuditsClean) {
  const std::string path = "/tmp/mendel_verify_roundtrip.bin";
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  client.save_index(path);

  const auto original = read_file(path);
  const auto view = core::read_snapshot(original);
  // The auditor parses with the reader Client::load_index uses; writing
  // the parsed snapshot back must reproduce what Client::save_index wrote.
  EXPECT_EQ(core::write_snapshot(view), original);

  const auto report = verify::audit_snapshot_file(path);
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_GT(report.blocks_audited, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotAudit, DetectsBlockMovedToTheWrongGroup) {
  const std::string path = "/tmp/mendel_verify_misplaced.bin";
  auto view = fresh_snapshot(path);

  // Move one block onto a shard in a different group: tier-1 placement
  // (window -> vp-prefix -> group) must flag it. Dense layout: shard id /
  // nodes_per_group is the group.
  std::size_t source = view.shards.size();
  for (std::size_t i = 0; i < view.shards.size(); ++i) {
    if (!view.shards[i].blocks.empty()) {
      source = i;
      break;
    }
  }
  ASSERT_LT(source, view.shards.size()) << "no shard holds blocks";
  const std::size_t target =
      (source + view.nodes_per_group) % view.shards.size();
  ASSERT_NE(source / view.nodes_per_group, target / view.nodes_per_group);
  if (view.shards[target].blocks.empty()) {
    // An empty shard carries no row geometry; adopt the source's so the
    // transplanted raw row re-encodes with the same framing.
    view.shards[target].window_length = view.shards[source].window_length;
    view.shards[target].packed_bits = view.shards[source].packed_bits;
  }
  view.shards[target].blocks.push_back(view.shards[source].blocks.back());
  view.shards[source].blocks.pop_back();

  write_file(path, core::write_snapshot(view));
  const auto report = verify::audit_snapshot_file(path);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_violation_contains(report.violations, "hashes to group"))
      << (report.violations.empty() ? "no violations"
                                    : report.violations.front());
  std::remove(path.c_str());
}

TEST(SnapshotAudit, DetectsOrphanedBlock) {
  const std::string path = "/tmp/mendel_verify_orphan.bin";
  auto view = fresh_snapshot(path);

  // Delete every stored copy of one referenced sequence: all its blocks
  // become orphans (they reference a sequence no shard stores).
  seq::SequenceId victim = seq::kInvalidSequenceId;
  for (const auto& shard : view.shards) {
    if (!shard.blocks.empty()) {
      victim = shard.blocks.front().sequence;
      break;
    }
  }
  ASSERT_NE(victim, seq::kInvalidSequenceId);
  for (auto& shard : view.shards) {
    std::erase_if(shard.sequences,
                  [victim](const auto& s) { return s.id == victim; });
  }

  write_file(path, core::write_snapshot(view));
  const auto report = verify::audit_snapshot_file(path);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_violation_contains(report.violations,
                                     "references a sequence no shard stores"))
      << (report.violations.empty() ? "no violations"
                                    : report.violations.front());
  std::remove(path.c_str());
}

TEST(SnapshotAudit, DetectsSequenceStoredOffItsHomeRing) {
  const std::string path = "/tmp/mendel_verify_homeless.bin";
  auto view = fresh_snapshot(path);

  std::size_t source = view.shards.size();
  for (std::size_t i = 0; i < view.shards.size(); ++i) {
    if (!view.shards[i].sequences.empty()) {
      source = i;
      break;
    }
  }
  ASSERT_LT(source, view.shards.size()) << "no shard stores sequences";
  // With sequence_replication = 1 a sequence has exactly one home, so any
  // other shard is off-ring.
  const std::size_t target = (source + 1) % view.shards.size();
  view.shards[target].sequences.push_back(
      view.shards[source].sequences.back());
  view.shards[source].sequences.pop_back();

  write_file(path, core::write_snapshot(view));
  const auto report = verify::audit_snapshot_file(path);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(
      any_violation_contains(report.violations, "off its home ring"))
      << (report.violations.empty() ? "no violations"
                                    : report.violations.front());
  std::remove(path.c_str());
}

TEST(SnapshotAudit, DetectsStrayBitsInPackedRow) {
  const std::string path = "/tmp/mendel_verify_straybits.bin";
  // DNA with a window length that is not a multiple of four leaves padding
  // bits in the last byte of every 2-bit packed row; the save path must
  // keep them zero and the audit must notice when they are not.
  auto spec = database_spec();
  spec.alphabet = seq::Alphabet::kDna;
  const auto store = workload::generate_database(spec);
  auto options = cluster_options();
  options.indexing.window_length = 10;
  core::Client client(options);
  client.index(store);
  client.save_index(path);
  auto view = core::read_snapshot(read_file(path));

  std::size_t victim = view.shards.size();
  for (std::size_t i = 0; i < view.shards.size(); ++i) {
    if (!view.shards[i].blocks.empty()) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, view.shards.size()) << "no shard holds blocks";
  ASSERT_EQ(view.shards[victim].packed_bits, 2u)
      << "pure ACGT database should pack at 2 bits";
  auto& block = view.shards[victim].blocks.front();
  std::vector<std::uint8_t> row(block.row.begin(), block.row.end());
  ASSERT_EQ(row.size(), 3u);  // ceil(10 * 2 / 8)
  row.back() |= 0xF0;         // bits above the 20 payload bits
  block.row = row;

  write_file(path, core::write_snapshot(view));
  const auto report = verify::audit_snapshot_file(path);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(
      any_violation_contains(report.violations, "malformed packed row"))
      << (report.violations.empty() ? "no violations"
                                    : report.violations.front());
  std::remove(path.c_str());
}

TEST(SnapshotAudit, DetectsCodeOutsideTheAlphabet) {
  const std::string path = "/tmp/mendel_verify_badcode.bin";
  auto view = fresh_snapshot(path);  // protein rows are stored unpacked

  std::size_t victim = view.shards.size();
  for (std::size_t i = 0; i < view.shards.size(); ++i) {
    if (!view.shards[i].blocks.empty()) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, view.shards.size()) << "no shard holds blocks";
  ASSERT_EQ(view.shards[victim].packed_bits, 0u);
  auto& block = view.shards[victim].blocks.front();
  std::vector<std::uint8_t> row(block.row.begin(), block.row.end());
  row.front() = 200;
  block.row = row;

  write_file(path, core::write_snapshot(view));
  const auto report = verify::audit_snapshot_file(path);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(
      any_violation_contains(report.violations, "outside the alphabet"))
      << (report.violations.empty() ? "no violations"
                                    : report.violations.front());
  std::remove(path.c_str());
}

TEST(SnapshotAudit, DetectsTruncatedSnapshot) {
  const std::string path = "/tmp/mendel_verify_truncated.bin";
  const auto store = workload::generate_database(database_spec());
  core::Client client(cluster_options());
  client.index(store);
  client.save_index(path);

  auto bytes = read_file(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() - 48);  // chop mid-shard
  EXPECT_THROW(core::read_snapshot(bytes), Error);

  write_file(path, bytes);
  const auto report = verify::audit_snapshot_file(path);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_violation_contains(report.violations, "failed to parse"))
      << (report.violations.empty() ? "no violations"
                                    : report.violations.front());
  std::remove(path.c_str());
}

TEST(SnapshotAudit, MissingFileIsAViolationNotAThrow) {
  const auto report =
      verify::audit_snapshot_file("/tmp/mendel_no_such_snapshot.bin");
  EXPECT_FALSE(report.ok());
}

// ---------- wire protocol ----------

TEST(Protocol, RoundTripSelfCheckIsClean) {
  const auto violations = verify::protocol_roundtrip_check();
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violation(s), first: " << violations.front();
}

TEST(Protocol, TruncatedPayloadThrowsParseError) {
  core::QueryRequestPayload request;
  request.query = {1, 2, 3, 4, 5, 6, 7, 8};
  auto bytes = core::encode_payload(request);
  ASSERT_GT(bytes.size(), 4u);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(core::decode_payload<core::QueryRequestPayload>(bytes),
               ParseError);
}

}  // namespace
}  // namespace mendel
