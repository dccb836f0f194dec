// Deep invariant verification for Mendel clusters and index snapshots.
//
// Three entry points, all returning human-readable violation lists
// (empty = sound):
//
//   * audit_client()    — audits a live cluster: every node's local
//                         vp-tree, bookkeeping, and two-tier DHT placement
//                         (StorageNode::audit), plus the cluster-wide
//                         orphan check (every inverted-index block must
//                         reference a sequence some shard stores).
//   * audit_snapshot*() — the same audit over an index snapshot, without
//                         instantiating storage nodes. The snapshot is
//                         parsed by core::read_snapshot, the reader
//                         Client::load_index uses (src/mendel/snapshot.h);
//                         a corrupt or truncated file is reported as a
//                         violation, never thrown out of the audit.
//   * protocol_roundtrip_check() — encode→decode→re-encode byte-equality
//                         self-check for every wire payload type (and the
//                         coordinator's split GroupQuery encoding).
//
// The MENDEL_CHECKED build mode runs the node-local audits automatically
// inside the storage nodes (after insert batches, rebalance, and load);
// this library adds the cluster/snapshot scope and the standalone
// tools/mendel_verify CLI on top.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/topology.h"
#include "src/mendel/client.h"
#include "src/mendel/snapshot.h"

namespace mendel::verify {

struct AuditReport {
  std::vector<std::string> violations;
  std::size_t nodes_audited = 0;
  std::size_t blocks_audited = 0;
  std::size_t sequences_audited = 0;

  bool ok() const { return violations.empty(); }
};

// Caps the violations collected per audit so a systematically corrupt
// snapshot produces a readable report instead of one line per block.
inline constexpr std::size_t kMaxAuditViolations = 64;

// --- live cluster -----------------------------------------------------

AuditReport audit_client(const core::Client& client);

// --- snapshots --------------------------------------------------------

// Audits a decoded snapshot. `base` supplies the topology parameters the
// snapshot does not record (ring_virtual_nodes, replication factors);
// num_groups / nodes_per_group are taken from the snapshot itself, like
// Client::load_index does.
AuditReport audit_snapshot(const core::Snapshot& view,
                           const cluster::TopologyConfig& base = {});

// Reads + audits a snapshot file; I/O or parse failures become
// violations in the report rather than exceptions.
AuditReport audit_snapshot_file(const std::string& path,
                                const cluster::TopologyConfig& base = {});

// --- wire protocol ----------------------------------------------------

// Round-trips a representative instance of every protocol payload type
// through its codec and reports any byte mismatch, partially consumed
// buffer, or decode failure.
std::vector<std::string> protocol_roundtrip_check();

}  // namespace mendel::verify
