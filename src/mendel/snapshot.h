// Index snapshot format (paper §VII-B lists saving pre-indexed data as
// future work): the one reader and the one writer of index snapshot files
// and of the per-node shards inside them. Client::save_index / load_index,
// StorageNode::save / load and the snapshot auditor (src/verify,
// tools/mendel_verify, the snapshot_fuzz harness) all go through here, so
// the byte layout (spelled out in snapshot.cpp) and its validation are
// stated once.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/mendel/block.h"
#include "src/scoring/distance.h"
#include "src/sequence/sequence.h"
#include "src/vptree/prefix_tree.h"

namespace mendel::core {

// One node's shard. Rows and sequences are views: into the snapshot
// buffer after read_snapshot (a load copies nothing until the node takes
// the data), or into the node and `row_storage` after StorageNode::save.
// Move-only, because the row views may point into `row_storage`.
struct SnapshotShard {
  struct BlockRow {
    seq::SequenceId sequence = 0;
    std::uint32_t start = 0;
    // vpt::WindowArena::payload_bytes(window_length, packed_bits) bytes.
    std::span<const std::uint8_t> row;
  };
  struct Sequence {
    seq::SequenceId id = 0;
    std::string_view name;
    std::span<const seq::Code> codes;
  };

  std::uint32_t id = 0;
  std::uint32_t group = 0;  // the group section the shard is filed under
  std::uint32_t window_length = 0;
  std::uint8_t packed_bits = 0;
  std::vector<BlockRow> blocks;
  std::vector<Sequence> sequences;
  // Rows copied out of a live node's arena (see StorageNode::save).
  std::vector<std::uint8_t> row_storage;

  SnapshotShard() = default;
  SnapshotShard(SnapshotShard&&) = default;
  SnapshotShard& operator=(SnapshotShard&&) = default;

  // Decodes every stored row into a full-window Block.
  std::vector<Block> materialize_blocks() const;
};

struct Snapshot {
  seq::Alphabet alphabet = seq::Alphabet::kProtein;
  std::uint64_t database_residues = 0;
  std::uint32_t num_groups = 0;
  std::uint32_t nodes_per_group = 0;
  std::vector<std::uint32_t> extra_groups;
  // The routing tree. read_snapshot decodes it into `tree` over
  // `distance` (heap-held, so the record stays movable while the tree's
  // matrix pointer stays valid) and points `prefix_tree` at it; a writer
  // points `prefix_tree` at a tree it keeps.
  std::unique_ptr<score::DistanceMatrix> distance;
  std::unique_ptr<vpt::VpPrefixTree> tree;
  const vpt::VpPrefixTree* prefix_tree = nullptr;
  // Group sections ascending, members in file order within each.
  std::vector<SnapshotShard> shards;
  // The bytes read_snapshot parsed; every shard view aliases them.
  std::vector<std::uint8_t> buffer;
};

// Parses snapshot bytes. Snapshot bytes come off disk, a decode surface,
// so every malformed input raises DecodeError: a bad magic, an unknown
// alphabet, counts beyond the bytes that remain, a row blob of the wrong
// length, a shard filed under another member id, group sections out of
// order, trailing bytes in a section or after the last one.
Snapshot read_snapshot(std::vector<std::uint8_t> bytes);

// Encodes a snapshot; read_snapshot(write_snapshot(s)) reproduces s, and
// write_snapshot(read_snapshot(b)) == b for every accepted b. Shards are
// written into their `group` sections in vector order.
std::vector<std::uint8_t> write_snapshot(const Snapshot& snapshot);

}  // namespace mendel::core
