// Dynamically balanced vantage-point tree (Yianilos 1993) with the two
// optimizations the paper adopts in §III-D: leaf buckets and per-child
// distance bounds. Each internal node holds a vantage point and a radius
// mu; elements closer than mu go left, the rest right, and each child
// records the [min, max] distance of its elements to the vantage point.
// n-NN search shrinks a candidate radius tau and prunes every child whose
// interval cannot meet the tau-ball. Search is exact when Metric satisfies
// the metric axioms (tests/vptree_test.cpp checks it against brute force).
//
// The paper (§III-D) observes that the original vp-tree must be built over
// the whole dataset at once and that naive one-at-a-time insertion degrades
// toward a linear-time structure. Following Fu et al.'s dynamic vp-tree
// indexing, insertion is handled by four cases:
//
//   1. leaf bucket has room              -> append to bucket;
//   2. leaf full, sibling has room       -> redistribute under the parent;
//   3. leaf+sibling full, some ancestor  -> redistribute under the lowest
//      subtree has room                     such ancestor;
//   4. tree completely full              -> rebuild from the root with
//                                           grown capacity ("split root").
//
// Cases 2 and 3 are implemented uniformly as "rebuild the lowest ancestor
// whose subtree has spare capacity" (case 2 is the ancestor == parent
// special case). Each (re)build fixes per-subtree capacities, so lookups
// stay O(log n) amortized.
//
// insert_batch() is the paper's "middle ground": elements are admitted in
// bulk, leaves may temporarily overflow, and a single consolidation pass
// rebuilds only the subtrees that ended up over capacity.
//
// A `rebalance = false` mode implements the naive split-in-place insertion
// the paper warns about; bench/micro_vptree quantifies the difference.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/error.h"
#include "src/common/rng.h"

namespace mendel::vpt {

// One search result: a stored element and its distance to the target.
template <typename T>
struct Neighbor {
  const T* item = nullptr;
  double distance = 0.0;
};

struct DynamicVpTreeOptions {
  std::size_t bucket_capacity = 32;
  // When false, full leaves are split in place with no redistribution —
  // the naive scheme (paper §III-D) kept for the ablation benchmark.
  bool rebalance = true;
  // insert_batch() lets a leaf overflow to overflow_factor * bucket_capacity
  // before the consolidation pass rebuilds its subtree.
  double overflow_factor = 2.0;
  std::uint64_t seed = 0x64796e767074ULL;
};

// Telemetry for the micro benchmarks and tests.
struct DynamicVpTreeCounters {
  std::size_t inserts = 0;
  std::size_t subtree_rebuilds = 0;
  std::size_t root_rebuilds = 0;
  std::size_t rebuilt_elements = 0;
};

template <typename T, typename Metric>
class DynamicVpTree {
 public:
  explicit DynamicVpTree(Metric metric, DynamicVpTreeOptions options = {})
      : metric_(std::move(metric)), options_(options), rng_(options.seed) {
    require(options_.bucket_capacity > 0, "bucket_capacity must be > 0");
    require(options_.overflow_factor >= 1.0, "overflow_factor must be >= 1");
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t depth() const { return node_depth(root_.get()); }
  const DynamicVpTreeCounters& counters() const { return counters_; }

  // Case-directed single insertion.
  void insert(T item) {
    ++counters_.inserts;
    ++size_;
    if (!root_) {
      root_ = make_leaf();
      root_->bucket.push_back(std::move(item));
      root_->size = 1;
      return;
    }
    if (!options_.rebalance) {
      naive_insert(root_.get(), std::move(item));
      return;
    }
    // Walk to the destination leaf recording the path. Child distance
    // bounds are widened along the way so search pruning stays admissible
    // (bounds may only ever be loose, never tight, after mutation).
    std::vector<Node*> path;
    Node* node = root_.get();
    for (;;) {
      path.push_back(node);
      if (node->is_leaf()) break;
      const double d = metric_(item, node->vantage);
      if (d <= node->mu) {
        node->left_min = std::min(node->left_min, d);
        node->left_max = std::max(node->left_max, d);
        node = node->left.get();
      } else {
        node->right_min = std::min(node->right_min, d);
        node->right_max = std::max(node->right_max, d);
        node = node->right.get();
      }
    }
    Node* leaf = path.back();
    if (leaf->bucket.size() < options_.bucket_capacity) {
      leaf->bucket.push_back(std::move(item));  // case 1
      for (Node* p : path) ++p->size;
      return;
    }
    // Cases 2/3: lowest ancestor with spare capacity. Its rebuilt subtree
    // absorbs the new element.
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      Node* ancestor = *it;
      if (ancestor->size < ancestor->capacity) {
        auto items = collect(ancestor);
        items.push_back(std::move(item));
        ++counters_.subtree_rebuilds;
        counters_.rebuilt_elements += items.size();
        rebuild_in_place(*ancestor, std::move(items));
        for (Node* p : path) {
          if (p == ancestor) break;
          ++p->size;
        }
        return;
      }
    }
    // Case 4: completely full tree — rebuild from the root; capacity grows
    // with the new structure.
    auto items = collect(root_.get());
    items.push_back(std::move(item));
    ++counters_.root_rebuilds;
    counters_.rebuilt_elements += items.size();
    root_ = build_node(items.begin(), items.end());
  }

  // Batched insertion: admit everything with temporary leaf overflow, then
  // consolidate over-capacity subtrees once.
  void insert_batch(std::vector<T> items) {
    if (items.empty()) return;
    counters_.inserts += items.size();
    if (!root_) {
      size_ = items.size();
      root_ = build_node(items.begin(), items.end());
      return;
    }
    size_ += items.size();
    if (!options_.rebalance) {
      for (auto& item : items) naive_insert(root_.get(), std::move(item));
      return;
    }
    const auto overflow_cap = static_cast<std::size_t>(
        options_.overflow_factor *
        static_cast<double>(options_.bucket_capacity));
    for (auto& item : items) admit_overflowing(root_.get(), std::move(item));
    consolidate(root_, overflow_cap);
  }

  // The n nearest neighbors of `target`. `max_distance` (optional) caps the
  // search radius from the start: neighbors beyond it are never reported,
  // and the cap tightens pruning before n candidates have been found.
  std::vector<Neighbor<T>> nearest(
      const T& target, std::size_t n,
      double max_distance = std::numeric_limits<double>::infinity()) const {
    return nearest_with(metric_, target, n, max_distance);
  }

  // Like nearest(), but evaluated through a caller-supplied metric instance.
  // The tree's own metric often routes probe elements through shared mutable
  // state (e.g. a per-node probe span); passing a per-search metric makes
  // concurrent searches over one (unchanging) tree safe — the structure is
  // only read, and every distance evaluation goes through `metric`.
  // `metric` must agree with the build metric on stored-element pairs, or
  // pruning bounds recorded at build time would be inadmissible.
  template <typename M>
  std::vector<Neighbor<T>> nearest_with(
      const M& metric, const T& target, std::size_t n,
      double max_distance = std::numeric_limits<double>::infinity()) const {
    return std::move(
        nearest_batch_with(metric, std::span<const T>(&target, 1), n,
                           max_distance)
            .front());
  }

  // The n nearest neighbors of every target, found in one walk of the tree
  // (nearest_with is the batch of one). Each target keeps its own n-NN
  // state and enters a subtree only when its own pruning test admits it at
  // that moment, so the walk prunes per target; what the targets share is
  // the visit order and each leaf visit, where the metric's scan_leaf hook
  // scores the bucket against all of them at once. With a tie_before
  // metric every target's result is the unique n smallest by (distance,
  // tie order) within the cap, so it does not depend on which other
  // targets share the batch.
  template <typename M>
  std::vector<std::vector<Neighbor<T>>> nearest_batch_with(
      const M& metric, std::span<const T> targets, std::size_t n,
      double max_distance = std::numeric_limits<double>::infinity()) const {
    std::vector<std::vector<Neighbor<T>>> out(targets.size());
    if (n == 0 || !root_ || targets.empty()) return out;
    BatchWalk<M> walk{metric, targets, {}, {}, {}, {}, {}};
    walk.states.reserve(targets.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
      walk.states.emplace_back(metric, n, max_distance);
      walk.ids.push_back(static_cast<std::uint32_t>(t));
      walk.dists.push_back(0.0);
    }
    search(walk, root_.get(), 0, targets.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
      auto& heap = walk.states[t].heap;
      out[t].reserve(heap.size());
      while (!heap.empty()) {
        out[t].push_back(heap.top());
        heap.pop();
      }
      std::reverse(out[t].begin(), out[t].end());
    }
    return out;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_node(root_.get(), fn);
  }

  // Deep structural self-audit (paper §III-D / Fu et al.'s invariants).
  // Re-derives every invariant the four rebalancing cases are supposed to
  // maintain and reports each violation as one human-readable line; an
  // empty result means the tree is structurally sound. Checked per node:
  //
  //   * bookkeeping   — subtree size sums, root size == size(), internal
  //                     nodes hold no bucket, both children present;
  //   * balance       — size <= 2 * effective structural capacity, where
  //                     the effective capacity is re-derived bottom-up
  //                     from the leaves (stored ancestor capacities go
  //                     stale by design after a case-2/3 descendant
  //                     rebuild — they are a soft budget, not an
  //                     invariant). Only meaningful with rebalance =
  //                     true; skipped for the naive ablation mode;
  //   * occupancy     — leaf buckets within max(bucket_capacity,
  //                     overflow_factor * bucket_capacity);
  //   * admissibility — every left-subtree element within mu of its
  //                     node's vantage and inside [left_min, left_max]
  //                     (respectively > mu and inside the right interval),
  //                     re-evaluating the metric for every element.
  //
  // The admissibility pass costs O(n log n) metric evaluations — audit
  // scale, not hot-path scale. `metric` defaults to the build metric; pass
  // a fresh instance for concurrent audits of a shared tree (see
  // nearest_with).
  template <typename M>
  std::vector<std::string> validate_with(const M& metric,
                                         std::size_t max_violations = 32)
      const {
    std::vector<std::string> out;
    if (root_ == nullptr) {
      if (size_ != 0) {
        out.push_back("empty tree reports size " + std::to_string(size_));
      }
      return out;
    }
    if (root_->size != size_) {
      out.push_back("root subtree size " + std::to_string(root_->size) +
                    " != tree size " + std::to_string(size_));
    }
    validate_node(metric, root_.get(), "root", out, max_violations);
    return out;
  }

  std::vector<std::string> validate(std::size_t max_violations = 32) const {
    return validate_with(metric_, max_violations);
  }

  std::vector<T> collect_all() const {
    std::vector<T> items;
    items.reserve(size_);
    for_each([&items](const T& item) { items.push_back(item); });
    return items;
  }

  // Removes every element matching `pred` and returns them; the remaining
  // elements are rebuilt into a fresh balanced tree. O(n) — removal is a
  // rebalancing event (used by cluster rebalance, not hot paths).
  template <typename Pred>
  std::vector<T> remove_if(Pred&& pred) {
    auto all = collect_all();
    std::vector<T> removed, kept;
    for (auto& item : all) {
      if (pred(item)) {
        removed.push_back(std::move(item));
      } else {
        kept.push_back(std::move(item));
      }
    }
    if (removed.empty()) return removed;
    root_.reset();
    size_ = kept.size();
    if (!kept.empty()) root_ = build_node(kept.begin(), kept.end());
    return removed;
  }

 private:
  struct Node {
    bool has_vantage = false;
    T vantage;
    double mu = 0.0;
    double left_min = 0.0, left_max = 0.0;
    double right_min = 0.0, right_max = 0.0;
    std::unique_ptr<Node> left, right;
    std::vector<T> bucket;
    std::size_t size = 0;      // elements in this subtree
    std::size_t capacity = 0;  // structural capacity fixed at (re)build

    bool is_leaf() const { return !has_vantage; }
  };

  // Detects a Metric that defines a total tie order over stored elements:
  // tie_before(a, b) == true when `a` precedes `b` among equidistant
  // candidates. With it, the n-NN result is the unique n smallest under the
  // lexicographic (distance, tie order) — independent of tree shape and
  // therefore of insertion order. Without it, equidistant candidates at the
  // n-th-neighbor boundary are admitted in traversal order (fine for
  // metrics whose real-valued distances make exact ties negligible; wrong
  // for small-alphabet workloads like DNA where ties are pervasive).
  template <typename M>
  static constexpr bool has_tie_break =
      requires(const M& m, const T& a, const T& b) {
        { m.tie_before(a, b) } -> std::convertible_to<bool>;
      };

  template <typename M>
  struct KnnState {
    const M* metric;
    std::size_t n;
    double cap;  // hard search-radius ceiling (inclusive)
    struct Farther {
      const M* metric;
      bool operator()(const Neighbor<T>& a, const Neighbor<T>& b) const {
        if (a.distance != b.distance) return a.distance < b.distance;
        if constexpr (has_tie_break<M>) {
          return metric->tie_before(*a.item, *b.item);
        } else {
          return false;
        }
      }
    };
    std::priority_queue<Neighbor<T>, std::vector<Neighbor<T>>, Farther> heap;

    KnnState(const M& m, std::size_t n_, double cap_)
        : metric(&m), n(n_), cap(cap_), heap(Farther{&m}) {}

    double tau() const {
      return heap.size() < n ? cap : std::min(cap, heap.top().distance);
    }
    void offer(const T* item, double distance) {
      if (distance > cap) return;
      if (heap.size() < n) {
        heap.push({item, distance});
        return;
      }
      const Neighbor<T>& worst = heap.top();
      bool better;
      if (distance != worst.distance) {
        better = distance < worst.distance;
      } else if constexpr (has_tie_break<M>) {
        // Both distances were admitted under tau, so both are exact and the
        // equality is real — break it with the metric's total order.
        better = metric->tie_before(*item, *worst.item);
      } else {
        better = false;
      }
      if (better) {
        heap.pop();
        heap.push({item, distance});
      }
    }
  };

  // Detects a Metric that offers an early-abandoning variant:
  // bounded(a, b, bound) returning a value > bound as soon as the running
  // distance exceeds `bound` (exact when <= bound). Used for bucket scans,
  // where the returned distance only gates admission into the heap.
  template <typename M>
  static constexpr bool has_bounded_metric =
      requires(const M& m, const T& a, const T& b, double bound) {
        { m.bounded(a, b, bound) } -> std::convertible_to<double>;
      };

  // Detects a Metric that scans a whole leaf bucket against a batch of
  // targets per call (the SIMD leaf scan):
  // scan_leaf(targets, k, items, count, bounds, admit) gets the k targets
  // at this leaf and each one's bound on entry, and must call admit(t, j, d)
  // — with the exact distance d — for exactly the items whose distance to
  // targets[t] is <= the bound of t current at that item, in item order
  // per target; admit returns t's new bound. Admission is the only event
  // that shrinks a target's tau, so every heap evolves exactly as in the
  // item-at-a-time path.
  template <typename M>
  static constexpr bool has_leaf_scan =
      requires(const M& m, const T* const* targets, std::size_t k,
               const T* items, std::size_t count, const double* bounds) {
        m.scan_leaf(targets, k, items, count, bounds,
                    [](std::size_t, std::size_t, double d) { return d; });
      };

  // A batched search in progress: every target's n-NN state, plus a stack
  // of frames, one per open node, each listing the targets active there
  // (ids) with their distance to that node's vantage point (dists).
  template <typename M>
  struct BatchWalk {
    const M& metric;
    std::span<const T> targets;
    std::vector<KnnState<M>> states;
    std::vector<std::uint32_t> ids;
    std::vector<double> dists;
    std::vector<const T*> leaf_targets;
    std::vector<double> leaf_bounds;
  };

  using Iter = typename std::vector<T>::iterator;

  std::unique_ptr<Node> make_leaf() {
    auto node = std::make_unique<Node>();
    node->capacity = options_.bucket_capacity;
    return node;
  }

  std::unique_ptr<Node> build_node(Iter first, Iter last) {
    auto node = std::make_unique<Node>();
    const auto count = static_cast<std::size_t>(last - first);
    node->size = count;
    if (count <= options_.bucket_capacity) {
      node->bucket.assign(std::make_move_iterator(first),
                          std::make_move_iterator(last));
      node->capacity = options_.bucket_capacity;
      return node;
    }
    const std::size_t vp_index = rng_.below(count);
    std::iter_swap(first, first + static_cast<std::ptrdiff_t>(vp_index));
    node->has_vantage = true;
    node->vantage = std::move(*first);
    ++first;

    std::vector<std::pair<double, T>> tagged;
    tagged.reserve(static_cast<std::size_t>(last - first));
    for (auto it = first; it != last; ++it) {
      tagged.emplace_back(metric_(node->vantage, *it), std::move(*it));
    }
    const std::size_t mid = tagged.size() / 2;
    std::nth_element(
        tagged.begin(), tagged.begin() + static_cast<std::ptrdiff_t>(mid),
        tagged.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    node->mu = tagged[mid].first;

    std::vector<T> left_items, right_items;
    double lmin = std::numeric_limits<double>::infinity(), lmax = 0.0;
    double rmin = std::numeric_limits<double>::infinity(), rmax = 0.0;
    for (auto& [d, item] : tagged) {
      if (d <= node->mu) {
        lmin = std::min(lmin, d);
        lmax = std::max(lmax, d);
        left_items.push_back(std::move(item));
      } else {
        rmin = std::min(rmin, d);
        rmax = std::max(rmax, d);
        right_items.push_back(std::move(item));
      }
    }
    node->left_min = left_items.empty() ? 0.0 : lmin;
    node->left_max = left_items.empty() ? 0.0 : lmax;
    node->right_min = right_items.empty() ? 0.0 : rmin;
    node->right_max = right_items.empty() ? 0.0 : rmax;

    node->left = left_items.empty()
                     ? make_leaf()
                     : build_node(left_items.begin(), left_items.end());
    node->right = right_items.empty()
                      ? make_leaf()
                      : build_node(right_items.begin(), right_items.end());
    node->capacity = node->left->capacity + node->right->capacity + 1;
    return node;
  }

  void rebuild_in_place(Node& node, std::vector<T> items) {
    auto fresh = build_node(items.begin(), items.end());
    node = std::move(*fresh);
  }

  // Naive split-in-place insertion (no redistribution): walk to the leaf;
  // if full, promote the leaf to an internal node using its first element
  // as vantage point and re-split the bucket. Similar elements inserted
  // consecutively yield highly skewed trees — exactly the pathology the
  // paper describes.
  void naive_insert(Node* node, T item) {
    for (;;) {
      ++node->size;
      if (node->is_leaf()) {
        if (node->bucket.size() < options_.bucket_capacity) {
          node->bucket.push_back(std::move(item));
          return;
        }
        // Split: first bucket element becomes the vantage point; mu is its
        // median distance to the rest (no sampling, no balance guarantee).
        node->has_vantage = true;
        node->vantage = std::move(node->bucket.front());
        std::vector<T> rest(std::make_move_iterator(node->bucket.begin() + 1),
                            std::make_move_iterator(node->bucket.end()));
        rest.push_back(std::move(item));
        node->bucket.clear();
        std::vector<double> dists;
        dists.reserve(rest.size());
        for (const T& r : rest) dists.push_back(metric_(node->vantage, r));
        std::vector<double> sorted = dists;
        std::nth_element(sorted.begin(),
                         sorted.begin() +
                             static_cast<std::ptrdiff_t>(sorted.size() / 2),
                         sorted.end());
        node->mu = sorted[sorted.size() / 2];
        node->left = make_leaf();
        node->right = make_leaf();
        double lmin = std::numeric_limits<double>::infinity(), lmax = 0.0;
        double rmin = std::numeric_limits<double>::infinity(), rmax = 0.0;
        for (std::size_t i = 0; i < rest.size(); ++i) {
          Node* child =
              dists[i] <= node->mu ? node->left.get() : node->right.get();
          if (dists[i] <= node->mu) {
            lmin = std::min(lmin, dists[i]);
            lmax = std::max(lmax, dists[i]);
          } else {
            rmin = std::min(rmin, dists[i]);
            rmax = std::max(rmax, dists[i]);
          }
          child->bucket.push_back(std::move(rest[i]));
          ++child->size;
        }
        node->left_min = node->left->size != 0 ? lmin : 0.0;
        node->left_max = node->left->size != 0 ? lmax : 0.0;
        node->right_min = node->right->size != 0 ? rmin : 0.0;
        node->right_max = node->right->size != 0 ? rmax : 0.0;
        node->capacity = node->left->capacity + node->right->capacity + 1;
        return;
      }
      const double d = metric_(item, node->vantage);
      // Keep the bounds admissible as the tree mutates.
      if (d <= node->mu) {
        node->left_min = std::min(node->left_min, d);
        node->left_max = std::max(node->left_max, d);
        node = node->left.get();
      } else {
        node->right_min = std::min(node->right_min, d);
        node->right_max = std::max(node->right_max, d);
        node = node->right.get();
      }
    }
  }

  // Batch admission: like case 1 but a leaf may exceed bucket_capacity.
  void admit_overflowing(Node* node, T item) {
    for (;;) {
      ++node->size;
      if (node->is_leaf()) {
        node->bucket.push_back(std::move(item));
        return;
      }
      const double d = metric_(item, node->vantage);
      if (d <= node->mu) {
        node->left_min = std::min(node->left_min, d);
        node->left_max = std::max(node->left_max, d);
        node = node->left.get();
      } else {
        node->right_min = std::min(node->right_min, d);
        node->right_max = std::max(node->right_max, d);
        node = node->right.get();
      }
    }
  }

  // Rebuilds the smallest over-capacity subtrees after a batch.
  void consolidate(std::unique_ptr<Node>& node, std::size_t overflow_cap) {
    if (!node) return;
    if (node->is_leaf()) {
      if (node->bucket.size() > overflow_cap) {
        auto items = collect(node.get());
        ++counters_.subtree_rebuilds;
        counters_.rebuilt_elements += items.size();
        rebuild_in_place(*node, std::move(items));
      }
      return;
    }
    if (node->size > 2 * node->capacity) {
      // Subtree badly over structural capacity: rebuild it whole rather
      // than descending.
      auto items = collect(node.get());
      ++counters_.subtree_rebuilds;
      counters_.rebuilt_elements += items.size();
      rebuild_in_place(*node, std::move(items));
      return;
    }
    consolidate(node->left, overflow_cap);
    consolidate(node->right, overflow_cap);
    if (node->has_vantage) {
      node->capacity = node->left->capacity + node->right->capacity + 1;
    }
  }

  std::vector<T> collect(const Node* node) const {
    std::vector<T> items;
    auto push = [&items](const T& item) { items.push_back(item); };
    for_each_node(node, push);
    MENDEL_DCHECK(items.size() == node->size,
                  "vp-tree subtree bookkeeping: collected " << items.size()
                      << " elements from a subtree recording size "
                      << node->size);
    return items;
  }

  template <typename Fn>
  void for_each_node(const Node* node, Fn& fn) const {
    if (node == nullptr) return;
    if (node->has_vantage) fn(node->vantage);
    for (const T& item : node->bucket) fn(item);
    for_each_node(node->left.get(), fn);
    for_each_node(node->right.get(), fn);
  }

  // Returns the subtree's effective structural capacity (leaf capacities
  // plus vantage slots, re-derived bottom-up) so the balance check can
  // ignore the stored capacities that case-2/3 rebuilds leave stale on
  // ancestors.
  template <typename M>
  std::size_t validate_node(const M& metric, const Node* node,
                            const std::string& path,
                            std::vector<std::string>& out,
                            std::size_t max_violations) const {
    if (out.size() >= max_violations) return node->capacity;
    auto report = [&](const std::string& what) {
      if (out.size() < max_violations) out.push_back(path + ": " + what);
    };

    if (node->is_leaf()) {
      if (node->left || node->right) {
        report("leaf with children");
        return node->capacity;
      }
      if (node->size != node->bucket.size()) {
        report("leaf size " + std::to_string(node->size) + " != bucket " +
               std::to_string(node->bucket.size()));
      }
      const auto occupancy_cap = static_cast<std::size_t>(
          options_.overflow_factor *
          static_cast<double>(options_.bucket_capacity));
      if (options_.rebalance &&
          node->bucket.size() >
              std::max(options_.bucket_capacity, occupancy_cap)) {
        report("leaf bucket " + std::to_string(node->bucket.size()) +
               " exceeds overflow cap " +
               std::to_string(std::max(options_.bucket_capacity,
                                       occupancy_cap)));
      }
      if (node->capacity != options_.bucket_capacity) {
        report("leaf capacity " + std::to_string(node->capacity) +
               " != bucket_capacity " +
               std::to_string(options_.bucket_capacity));
      }
      return options_.bucket_capacity;
    }

    if (!node->left || !node->right) {
      report("internal node missing a child");
      return node->capacity;
    }
    if (!node->bucket.empty()) {
      report("internal node holds a bucket of " +
             std::to_string(node->bucket.size()));
    }
    if (node->size != node->left->size + node->right->size + 1) {
      report("subtree size " + std::to_string(node->size) +
             " != left " + std::to_string(node->left->size) + " + right " +
             std::to_string(node->right->size) + " + vantage");
    }
    if (!(node->mu >= 0.0) || !std::isfinite(node->mu)) {
      report("mu " + std::to_string(node->mu) + " not a finite radius");
    }
    if (node->left_min > node->left_max || node->right_min > node->right_max) {
      report("inverted child distance interval");
    }

    // Admissibility: the recorded mu and child intervals must contain the
    // true vantage distance of every element routed below them; search
    // pruning silently drops results otherwise.
    auto check_side = [&](const Node* child, bool left_side) {
      const double lo = left_side ? node->left_min : node->right_min;
      const double hi = left_side ? node->left_max : node->right_max;
      auto probe = [&](const T& item) {
        if (out.size() >= max_violations) return;
        const double d = metric(node->vantage, item);
        const bool in_half = left_side ? d <= node->mu : d > node->mu;
        if (!in_half) {
          report(std::string(left_side ? "left" : "right") +
                 "-subtree element at vantage distance " +
                 std::to_string(d) + " violates mu " +
                 std::to_string(node->mu));
        } else if (d < lo || d > hi) {
          report(std::string(left_side ? "left" : "right") +
                 "-subtree element distance " + std::to_string(d) +
                 " outside recorded [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "]");
        }
      };
      for_each_node(child, probe);
    };
    check_side(node->left.get(), true);
    check_side(node->right.get(), false);

    const std::size_t effective =
        validate_node(metric, node->left.get(), path + "/L", out,
                      max_violations) +
        validate_node(metric, node->right.get(), path + "/R", out,
                      max_violations) +
        1;
    // The consolidation guarantee: a subtree more than 2x over its
    // structural capacity would have been rebuilt (leaves may individually
    // overflow to overflow_factor * bucket_capacity between batches, which
    // the occupancy check above bounds).
    if (options_.rebalance && node->size > 2 * effective) {
      report("unbalanced: size " + std::to_string(node->size) +
             " > 2 * effective capacity " + std::to_string(effective));
    }
    return effective;
  }

  // Visits `node` with the targets of frame [begin, end) of walk.ids.
  template <typename M>
  void search(BatchWalk<M>& walk, const Node* node, std::size_t begin,
              std::size_t end) const {
    const M& metric = walk.metric;
    if (node->is_leaf()) {
      scan_bucket(walk, node, begin, end);
      return;
    }
    // The targets the vantage point does not prune open this node's frame.
    const std::size_t frame = walk.ids.size();
    std::size_t near_left = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t t = walk.ids[i];
      KnnState<M>& state = walk.states[t];
      double d;
      if constexpr (has_bounded_metric<M>) {
        // A vantage point farther than max(mu, child maxima) + tau offers
        // nothing: it is outside tau itself and the tau-ball cannot reach
        // either child's [*, max] interval, so the whole subtree is pruned
        // for this target and the bounded metric may abandon mid-window.
        const double bound =
            std::max(node->mu, std::max(node->left_max, node->right_max)) +
            state.tau();
        d = metric.bounded(walk.targets[t], node->vantage, bound);
        if (d > bound) continue;
      } else {
        d = metric(walk.targets[t], node->vantage);
      }
      state.offer(&node->vantage, d);
      walk.ids.push_back(t);
      walk.dists.push_back(d);
      if (d <= node->mu) ++near_left;
    }
    const std::size_t open = walk.ids.size();
    // One visit order for the batch: first the child that most targets
    // are nearer to — a single target's own near child.
    const bool left_first = 2 * near_left >= open - frame;
    for (const bool left : {left_first, !left_first}) {
      const Node* child = left ? node->left.get() : node->right.get();
      if (child == nullptr || child->size == 0) continue;
      const double lo = left ? node->left_min : node->right_min;
      const double hi = left ? node->left_max : node->right_max;
      // Each target enters only if its tau-ball, as of now, can still
      // reach the child's distance interval.
      for (std::size_t i = frame; i < open; ++i) {
        const std::uint32_t t = walk.ids[i];
        const double d = walk.dists[i];
        const double tau = walk.states[t].tau();
        if (d - tau <= hi && d + tau >= lo) {
          walk.ids.push_back(t);
          walk.dists.push_back(d);
        }
      }
      if (walk.ids.size() > open) search(walk, child, open, walk.ids.size());
      walk.ids.resize(open);
      walk.dists.resize(open);
    }
    walk.ids.resize(frame);
    walk.dists.resize(frame);
  }

  template <typename M>
  void scan_bucket(BatchWalk<M>& walk, const Node* node, std::size_t begin,
                   std::size_t end) const {
    const M& metric = walk.metric;
    const T* items = node->bucket.data();
    if constexpr (has_leaf_scan<M>) {
      walk.leaf_targets.clear();
      walk.leaf_bounds.clear();
      for (std::size_t i = begin; i < end; ++i) {
        walk.leaf_targets.push_back(&walk.targets[walk.ids[i]]);
        walk.leaf_bounds.push_back(walk.states[walk.ids[i]].tau());
      }
      metric.scan_leaf(walk.leaf_targets.data(), end - begin, items,
                       node->bucket.size(), walk.leaf_bounds.data(),
                       [&](std::size_t t, std::size_t j, double d) {
                         KnnState<M>& state = walk.states[walk.ids[begin + t]];
                         state.offer(&items[j], d);
                         return state.tau();
                       });
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const T& target = walk.targets[walk.ids[i]];
        KnnState<M>& state = walk.states[walk.ids[i]];
        for (const T& item : node->bucket) {
          if constexpr (has_bounded_metric<M>) {
            const double tau = state.tau();
            const double d = metric.bounded(target, item, tau);
            if (d <= tau) state.offer(&item, d);
          } else {
            state.offer(&item, metric(target, item));
          }
        }
      }
    }
  }

  std::size_t node_depth(const Node* node) const {
    if (node == nullptr) return 0;
    return 1 + std::max(node_depth(node->left.get()),
                        node_depth(node->right.get()));
  }

  Metric metric_;
  DynamicVpTreeOptions options_;
  Rng rng_;
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  DynamicVpTreeCounters counters_;
};

}  // namespace mendel::vpt
