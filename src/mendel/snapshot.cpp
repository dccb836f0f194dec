#include "src/mendel/snapshot.h"

#include <string>

#include "src/common/codec.h"
#include "src/common/error.h"
#include "src/vptree/window_arena.h"

namespace mendel::core {

namespace {

// Layout (codec.h little-endian primitives):
//
//   str "mendel-index-v3" | u8 alphabet | u64 database_residues
//   u32 num_groups | u32 nodes_per_group
//   u32 n | u32 group × n          groups of nodes added after the dense
//                                  initial layout, in id order
//   vp-prefix routing tree         (vpt::VpPrefixTree::encode)
//   u32 num_groups, then per group g ascending:
//     u32 g | u32 section length | section =
//       u32 members, then per member (ascending id): u32 id | shard
//
//   shard = str "mendel-node-v2" | u32 id | u32 window_length
//           u8 packed_bits (0 = one code per byte, 2/4 = bit-packed rows)
//           u32 blocks | (u32 sequence, u32 start) × blocks, in arena order
//           u64 row blob length | payload rows, no stride padding
//           u32 sequences | (u32 id, str name, bytes codes) × sequences,
//           ascending id
//
// The group sections are length-framed so tooling can skip or rewrite one
// group without decoding the whole cluster.
constexpr std::string_view kIndexMagic = "mendel-index-v3";
constexpr std::string_view kShardMagic = "mendel-node-v2";

void check(bool ok, const std::string& what) {
  if (!ok) throw DecodeError("read_snapshot: " + what);
}

std::size_t stored_row_bytes(const SnapshotShard& shard) {
  return vpt::WindowArena::payload_bytes(shard.window_length,
                                         shard.packed_bits);
}

// u32 length + bytes, viewed in place.
std::span<const std::uint8_t> read_view(CodecReader& reader) {
  return reader.raw(reader.u32());
}

SnapshotShard read_shard(CodecReader& reader, std::uint32_t group) {
  SnapshotShard shard;
  shard.group = group;
  const std::string magic = reader.str();
  check(magic == kShardMagic, "bad node shard magic '" + magic + "'");
  reader(shard.id, shard.window_length, shard.packed_bits);
  const std::string node = "node " + std::to_string(shard.id) + ": ";
  check(shard.packed_bits == 0 || shard.packed_bits == 2 ||
            shard.packed_bits == 4,
        node + "bad packed row width " + std::to_string(shard.packed_bits));
  const std::uint32_t block_count = reader.u32();
  // window_length 0 is how an empty arena saves itself; with blocks
  // present every row would be zero bytes and decode_row nonsensical.
  check(shard.window_length > 0 || block_count == 0,
        node + "zero window length with blocks");
  // Bound counts by the bytes that must back them BEFORE sizing any
  // container: a forged count must not become a multi-GB allocation.
  check(block_count <= reader.remaining() / 8,
        node + "block count " + std::to_string(block_count) +
            " exceeds the remaining bytes");
  shard.blocks.resize(block_count);
  for (auto& block : shard.blocks) reader(block.sequence, block.start);
  const std::size_t row_bytes = stored_row_bytes(shard);
  const std::uint64_t blob = reader.u64();
  check(blob == static_cast<std::uint64_t>(block_count) * row_bytes,
        node + "row blob length mismatch");
  check(blob <= reader.remaining(), node + "row blob overruns the buffer");
  for (auto& block : shard.blocks) block.row = reader.raw(row_bytes);
  const std::uint32_t sequence_count = reader.u32();
  check(sequence_count <= reader.remaining() / 12,
        node + "sequence count " + std::to_string(sequence_count) +
            " exceeds the remaining bytes");
  shard.sequences.resize(sequence_count);
  for (auto& sequence : shard.sequences) {
    sequence.id = reader.u32();
    const auto name = read_view(reader);
    sequence.name = {reinterpret_cast<const char*>(name.data()), name.size()};
    sequence.codes = read_view(reader);
  }
  return shard;
}

void write_shard(CodecWriter& writer, const SnapshotShard& shard) {
  writer.str(kShardMagic);
  writer(shard.id, shard.window_length, shard.packed_bits);
  writer.u32(static_cast<std::uint32_t>(shard.blocks.size()));
  for (const auto& block : shard.blocks) writer(block.sequence, block.start);
  const std::size_t row_bytes = stored_row_bytes(shard);
  writer.u64(static_cast<std::uint64_t>(shard.blocks.size()) * row_bytes);
  for (const auto& block : shard.blocks) {
    require(block.row.size() == row_bytes,
            "write_snapshot: node " + std::to_string(shard.id) +
                ": row size differs from the shard's row width");
    writer.raw(block.row);
  }
  writer.u32(static_cast<std::uint32_t>(shard.sequences.size()));
  for (const auto& sequence : shard.sequences) {
    writer.u32(sequence.id);
    writer.str(sequence.name);
    writer.bytes(sequence.codes);
  }
}

}  // namespace

std::vector<Block> SnapshotShard::materialize_blocks() const {
  std::vector<Block> out;
  out.reserve(blocks.size());
  for (const BlockRow& row : blocks) {
    Block block;
    block.sequence = row.sequence;
    block.start = row.start;
    block.window.resize(window_length);
    vpt::WindowArena::decode_row(row.row.data(), block.window.data(),
                                 window_length, packed_bits);
    out.push_back(std::move(block));
  }
  return out;
}

Snapshot read_snapshot(std::vector<std::uint8_t> bytes) {
  Snapshot snapshot;
  snapshot.buffer = std::move(bytes);
  CodecReader reader(snapshot.buffer);

  const std::string magic = reader.str();
  check(magic == kIndexMagic, "bad snapshot magic '" + magic +
                                  "' (re-index and save with this version)");
  const std::uint8_t alphabet = reader.u8();
  check(alphabet <= static_cast<std::uint8_t>(seq::Alphabet::kProtein),
        "unknown alphabet " + std::to_string(alphabet));
  snapshot.alphabet = static_cast<seq::Alphabet>(alphabet);
  reader(snapshot.database_residues, snapshot.num_groups,
         snapshot.nodes_per_group, snapshot.extra_groups);

  snapshot.distance = std::make_unique<score::DistanceMatrix>(
      score::default_distance(snapshot.alphabet));
  snapshot.tree = std::make_unique<vpt::VpPrefixTree>(
      vpt::VpPrefixTree::decode(reader, snapshot.distance.get()));
  snapshot.prefix_tree = snapshot.tree.get();

  const std::uint32_t group_count = reader.u32();
  check(group_count == snapshot.num_groups, "group section count mismatch");
  for (std::uint32_t g = 0; g < group_count; ++g) {
    const std::uint32_t group = reader.u32();
    check(group == g, "group sections out of order");
    CodecReader section(read_view(reader));
    const std::uint32_t members = section.u32();
    for (std::uint32_t m = 0; m < members; ++m) {
      const std::uint32_t id = section.u32();
      SnapshotShard shard = read_shard(section, group);
      check(shard.id == id, "shard id " + std::to_string(shard.id) +
                                " filed under member id " +
                                std::to_string(id));
      snapshot.shards.push_back(std::move(shard));
    }
    check(section.done(),
          "trailing bytes in group section " + std::to_string(group));
  }
  check(reader.done(), std::to_string(reader.remaining()) +
                           " trailing byte(s) after the last section");
  return snapshot;
}

std::vector<std::uint8_t> write_snapshot(const Snapshot& snapshot) {
  require(snapshot.prefix_tree != nullptr,
          "write_snapshot: snapshot has no prefix tree");
  CodecWriter writer;
  writer.str(kIndexMagic);
  writer(static_cast<std::uint8_t>(snapshot.alphabet),
         snapshot.database_residues, snapshot.num_groups,
         snapshot.nodes_per_group, snapshot.extra_groups);
  snapshot.prefix_tree->encode(writer);
  writer.u32(snapshot.num_groups);
  for (std::uint32_t group = 0; group < snapshot.num_groups; ++group) {
    writer.u32(group);
    CodecWriter section;
    std::uint32_t members = 0;
    for (const SnapshotShard& shard : snapshot.shards) {
      if (shard.group == group) ++members;
    }
    section.u32(members);
    for (const SnapshotShard& shard : snapshot.shards) {
      if (shard.group != group) continue;
      section.u32(shard.id);
      write_shard(section, shard);
    }
    writer.bytes(section.data());
  }
  return writer.take();
}

}  // namespace mendel::core
