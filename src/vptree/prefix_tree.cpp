#include "src/vptree/prefix_tree.h"

#include <algorithm>
#include <cmath>

#include "src/common/error.h"
#include "src/common/rng.h"

namespace mendel::vpt {

VpPrefixTree::VpPrefixTree(const score::DistanceMatrix* distance,
                           PrefixTreeOptions options)
    : distance_(distance), options_(options) {
  require(distance_ != nullptr, "VpPrefixTree requires a distance matrix");
  require(options_.cutoff_depth >= 1, "cutoff_depth must be >= 1");
  require(options_.cutoff_depth <= 40,
          "cutoff_depth too deep for 64-bit prefixes");
  require(options_.min_partition >= 2, "min_partition must be >= 2");
}

void VpPrefixTree::build(std::vector<Window> sample) {
  require(!sample.empty(), "VpPrefixTree: empty build sample");
  window_length_ = sample.front().size();
  require(window_length_ > 0, "VpPrefixTree: zero-length windows");
  for (const auto& w : sample) {
    require(w.size() == window_length_, "VpPrefixTree: ragged sample");
  }
  Rng rng(options_.seed);
  leaf_prefixes_.clear();
  root_ = build_node(std::move(sample), 1, 1, rng);
  built_ = true;
  std::sort(leaf_prefixes_.begin(), leaf_prefixes_.end());
  leaf_prefixes_.erase(
      std::unique(leaf_prefixes_.begin(), leaf_prefixes_.end()),
      leaf_prefixes_.end());
}

std::unique_ptr<VpPrefixTree::Node> VpPrefixTree::build_node(
    std::vector<Window> sample, std::size_t depth, std::uint64_t prefix,
    Rng& rng) {
  // Stop descending at the cutoff or when the partition is too small to
  // estimate a meaningful median radius.
  if (depth >= options_.cutoff_depth || sample.size() < options_.min_partition) {
    leaf_prefixes_.push_back(prefix);
    return nullptr;
  }

  auto node = std::make_unique<Node>();
  const std::size_t vp_index = rng.below(sample.size());
  std::swap(sample[vp_index], sample.back());
  node->vantage = std::move(sample.back());
  sample.pop_back();

  std::vector<std::pair<double, Window>> tagged;
  tagged.reserve(sample.size());
  for (auto& w : sample) {
    tagged.emplace_back(score::window_distance(*distance_, node->vantage, w),
                        std::move(w));
  }
  const std::size_t mid = tagged.size() / 2;
  std::nth_element(
      tagged.begin(), tagged.begin() + static_cast<std::ptrdiff_t>(mid),
      tagged.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  node->mu = tagged[mid].first;

  std::vector<Window> left_sample, right_sample;
  for (auto& [d, w] : tagged) {
    (d <= node->mu ? left_sample : right_sample).push_back(std::move(w));
  }

  node->left =
      build_node(std::move(left_sample), depth + 1, prefix << 1, rng);
  node->right =
      build_node(std::move(right_sample), depth + 1, (prefix << 1) | 1, rng);
  return node;
}

std::uint64_t VpPrefixTree::hash(seq::CodeSpan window) const {
  require(built(), "VpPrefixTree::hash before build()");
  require(window.size() == window_length_,
          "VpPrefixTree::hash window length mismatch");
  const Node* node = root_.get();  // may be null: degenerate one-prefix tree
  std::uint64_t prefix = 1;
  while (node != nullptr) {
    // Lengths were validated above; vantage windows share window_length_.
    const double d = score::window_distance_unchecked(
        *distance_, window.data(), node->vantage.data(), window.size());
    if (d <= node->mu) {
      prefix = prefix << 1;
      node = node->left.get();
    } else {
      prefix = (prefix << 1) | 1;
      node = node->right.get();
    }
  }
  return prefix;
}

std::vector<std::uint64_t> VpPrefixTree::hash_multi(seq::CodeSpan window,
                                                    double epsilon) const {
  require(built(), "VpPrefixTree::hash_multi before build()");
  require(window.size() == window_length_,
          "VpPrefixTree::hash_multi window length mismatch");
  std::vector<std::uint64_t> out;
  hash_multi_walk(root_.get(), window, 1, epsilon, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void VpPrefixTree::hash_multi_walk(const Node* node, seq::CodeSpan window,
                                   std::uint64_t prefix, double epsilon,
                                   std::vector<std::uint64_t>& out) const {
  if (node == nullptr) {
    out.push_back(prefix);
    return;
  }
  const double d = score::window_distance_unchecked(
      *distance_, window.data(), node->vantage.data(), window.size());
  const bool go_left = d <= node->mu;
  // Strict comparison: epsilon = 0 reproduces exactly the single hash()
  // path (window distances are integer-valued, so ties are common).
  const bool branch = std::abs(d - node->mu) < epsilon;
  if (go_left || branch) {
    hash_multi_walk(node->left.get(), window, prefix << 1, epsilon, out);
  }
  if (!go_left || branch) {
    hash_multi_walk(node->right.get(), window, (prefix << 1) | 1, epsilon,
                    out);
  }
}

std::vector<std::string> VpPrefixTree::validate() const {
  std::vector<std::string> out;
  if (!built_) {
    out.push_back("prefix tree not built");
    return out;
  }
  if (window_length_ == 0) {
    out.push_back("window_length is 0 on a built tree");
    return out;
  }

  // Re-walk the tree exactly as hash() would, collecting every emittable
  // prefix and checking per-node invariants along the way.
  std::vector<std::uint64_t> emitted;
  struct Frame {
    const Node* node;
    std::size_t depth;
    std::uint64_t prefix;
  };
  std::vector<Frame> stack{{root_.get(), 1, 1}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.node == nullptr) {
      emitted.push_back(frame.prefix);
      continue;
    }
    if (frame.depth >= options_.cutoff_depth) {
      out.push_back("vantage node at depth " + std::to_string(frame.depth) +
                    " beyond cutoff " +
                    std::to_string(options_.cutoff_depth));
      continue;  // children would only repeat the violation
    }
    if (frame.node->vantage.size() != window_length_) {
      out.push_back("vantage window length " +
                    std::to_string(frame.node->vantage.size()) + " != " +
                    std::to_string(window_length_) + " at prefix " +
                    std::to_string(frame.prefix));
    }
    if (!(frame.node->mu >= 0.0) || !std::isfinite(frame.node->mu)) {
      out.push_back("non-finite or negative mu at prefix " +
                    std::to_string(frame.prefix));
    }
    stack.push_back({frame.node->left.get(), frame.depth + 1,
                     frame.prefix << 1});
    stack.push_back({frame.node->right.get(), frame.depth + 1,
                     (frame.prefix << 1) | 1});
  }
  std::sort(emitted.begin(), emitted.end());
  emitted.erase(std::unique(emitted.begin(), emitted.end()), emitted.end());

  if (!std::is_sorted(leaf_prefixes_.begin(), leaf_prefixes_.end())) {
    out.push_back("leaf_prefixes not sorted");
  }
  if (emitted != leaf_prefixes_) {
    out.push_back("leaf_prefixes table (" +
                  std::to_string(leaf_prefixes_.size()) +
                  " entries) disagrees with the " +
                  std::to_string(emitted.size()) +
                  " prefixes the traversal emits");
  }
  return out;
}

void VpPrefixTree::encode(CodecWriter& writer) const {
  require(built(), "VpPrefixTree::encode before build()");
  writer.u32(static_cast<std::uint32_t>(options_.cutoff_depth));
  writer.u32(static_cast<std::uint32_t>(options_.min_partition));
  writer.u64(options_.seed);
  writer.u32(static_cast<std::uint32_t>(window_length_));
  writer(leaf_prefixes_);
  encode_node(writer, root_.get());
}

void VpPrefixTree::encode_node(CodecWriter& writer, const Node* node) {
  if (node == nullptr) {
    writer.boolean(false);
    return;
  }
  writer.boolean(true);
  writer.bytes(std::span<const std::uint8_t>(node->vantage.data(),
                                             node->vantage.size()));
  writer.f64(node->mu);
  encode_node(writer, node->left.get());
  encode_node(writer, node->right.get());
}

VpPrefixTree VpPrefixTree::decode(CodecReader& reader,
                                  const score::DistanceMatrix* distance) {
  PrefixTreeOptions options;
  options.cutoff_depth = reader.u32();
  options.min_partition = reader.u32();
  options.seed = reader.u64();
  VpPrefixTree tree(distance, options);
  tree.window_length_ = reader.u32();
  reader(tree.leaf_prefixes_);
  tree.root_ = decode_node(reader);
  tree.built_ = true;
  return tree;
}

std::unique_ptr<VpPrefixTree::Node> VpPrefixTree::decode_node(
    CodecReader& reader, std::size_t depth) {
  constexpr std::size_t kMaxDecodeDepth = 512;
  if (depth > kMaxDecodeDepth) {
    throw DecodeError("VpPrefixTree: encoded tree deeper than " +
                      std::to_string(kMaxDecodeDepth) + " levels");
  }
  if (!reader.boolean()) return nullptr;
  auto node = std::make_unique<Node>();
  node->vantage = reader.bytes();
  node->mu = reader.f64();
  node->left = decode_node(reader, depth + 1);
  node->right = decode_node(reader, depth + 1);
  return node;
}

}  // namespace mendel::vpt
