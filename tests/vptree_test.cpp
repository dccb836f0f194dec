// Unit and property tests for src/vptree: the dynamic tree and the
// vp-prefix LSH. The central property is *exactness*: k-NN over a metric
// must return exactly the brute-force answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "src/common/rng.h"
#include "src/scoring/distance.h"
#include "src/vptree/dynamic_vptree.h"
#include "src/vptree/prefix_tree.h"
#include "src/workload/generator.h"

namespace mendel::vpt {
namespace {

struct L1 {
  double operator()(double a, double b) const { return std::abs(a - b); }
};

std::vector<double> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) points.push_back(rng.uniform() * 100);
  return points;
}

std::vector<double> brute_force_knn(const std::vector<double>& points,
                                    double target, std::size_t n) {
  std::vector<double> dists;
  dists.reserve(points.size());
  for (double p : points) dists.push_back(std::abs(p - target));
  std::sort(dists.begin(), dists.end());
  dists.resize(std::min(n, dists.size()));
  return dists;
}

// ---------- DynamicVpTree ----------

class DynamicExactnessTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DynamicExactnessTest, KnnExactAfterIncrementalInserts) {
  const auto points = random_points(800, GetParam());
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 8});
  std::vector<double> inserted;
  for (double p : points) {
    tree.insert(p);
    inserted.push_back(p);
  }
  EXPECT_EQ(tree.size(), inserted.size());
  Rng rng(GetParam() ^ 0x999);
  for (int trial = 0; trial < 10; ++trial) {
    const double target = rng.uniform() * 100;
    const auto got = tree.nearest(target, 7);
    const auto expected = brute_force_knn(inserted, target, 7);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicExactnessTest,
                         ::testing::Values(21, 22, 23, 24, 25));

// Exactness of a tree bulk-built by one insert_batch, from a handful of
// points per leaf up to a deep tree.
struct BatchShape {
  std::size_t points;
  std::size_t bucket;
  std::uint64_t seed;
};

class DynamicBatchExactnessTest : public ::testing::TestWithParam<BatchShape> {
};

TEST_P(DynamicBatchExactnessTest, KnnMatchesBruteForce) {
  const auto [n_points, bucket, seed] = GetParam();
  const auto points = random_points(n_points, seed);
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = bucket});
  tree.insert_batch(points);
  EXPECT_EQ(tree.size(), points.size());

  Rng rng(seed ^ 0xabc);
  for (int trial = 0; trial < 20; ++trial) {
    const double target = rng.uniform() * 120 - 10;
    for (std::size_t k : {1u, 3u, 10u}) {
      const auto got = tree.nearest(target, k);
      const auto expected = brute_force_knn(points, target, k);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].distance, expected[i], 1e-12)
            << "k=" << k << " i=" << i;
      }
      // Results must be sorted closest-first.
      for (std::size_t i = 1; i < got.size(); ++i) {
        EXPECT_LE(got[i - 1].distance, got[i].distance);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DynamicBatchExactnessTest,
    ::testing::Values(BatchShape{10, 4, 1}, BatchShape{100, 4, 2},
                      BatchShape{100, 32, 3}, BatchShape{1000, 8, 4},
                      BatchShape{1000, 64, 5}, BatchShape{3000, 16, 6}),
    [](const ::testing::TestParamInfo<BatchShape>& shape) {
      return std::to_string(shape.param.points) + "points_" +
             std::to_string(shape.param.bucket) + "bucket";
    });

TEST(DynamicVpTree, BatchInsertExact) {
  Rng rng(31);
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 8});
  std::vector<double> all;
  for (int batch = 0; batch < 6; ++batch) {
    const auto points = random_points(150, 31 + batch);
    all.insert(all.end(), points.begin(), points.end());
    tree.insert_batch(points);
  }
  EXPECT_EQ(tree.size(), all.size());
  const auto got = tree.nearest(50.0, 12);
  const auto expected = brute_force_knn(all, 50.0, 12);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, expected[i], 1e-12);
  }
}

TEST(DynamicVpTree, SortedInsertionStaysBalancedWithRebalancing) {
  DynamicVpTree<double, L1> balanced(L1{}, {.bucket_capacity = 8});
  DynamicVpTree<double, L1> naive(
      L1{}, {.bucket_capacity = 8, .rebalance = false});
  // Sorted insertion is the adversarial case the paper describes: naive
  // splitting degenerates while the rebalancing insert stays shallow.
  for (int i = 0; i < 2000; ++i) {
    balanced.insert(static_cast<double>(i));
    naive.insert(static_cast<double>(i));
  }
  EXPECT_EQ(balanced.size(), 2000u);
  EXPECT_EQ(naive.size(), 2000u);
  EXPECT_LT(balanced.depth() * 3, naive.depth())
      << "balanced=" << balanced.depth() << " naive=" << naive.depth();
}

TEST(DynamicVpTree, NaiveInsertStillSearchesExactly) {
  const auto points = random_points(300, 41);
  DynamicVpTree<double, L1> tree(
      L1{}, {.bucket_capacity = 8, .rebalance = false});
  for (double p : points) tree.insert(p);
  const auto got = tree.nearest(33.0, 5);
  const auto expected = brute_force_knn(points, 33.0, 5);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, expected[i], 1e-12);
  }
}

TEST(DynamicVpTree, CountersTrackRebuilds) {
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 4});
  for (int i = 0; i < 500; ++i) tree.insert(static_cast<double>(i % 97));
  const auto& counters = tree.counters();
  EXPECT_EQ(counters.inserts, 500u);
  EXPECT_GT(counters.subtree_rebuilds + counters.root_rebuilds, 0u);
}

TEST(DynamicVpTree, RadiusCapFiltersAndStaysExact) {
  const auto points = random_points(600, 71);
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 8});
  tree.insert_batch(points);
  const double target = 40.0, cap = 2.5;
  const auto capped = tree.nearest(target, 20, cap);
  // Every result is within the cap...
  for (const auto& nb : capped) EXPECT_LE(nb.distance, cap);
  // ...and matches brute force restricted to the cap.
  auto expected = brute_force_knn(points, target, 20);
  std::erase_if(expected, [&](double d) { return d > cap; });
  ASSERT_EQ(capped.size(), expected.size());
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_NEAR(capped[i].distance, expected[i], 1e-12);
  }
  // An infinite cap reproduces the plain search.
  const auto plain = tree.nearest(target, 20);
  const auto infinite = tree.nearest(
      target, 20, std::numeric_limits<double>::infinity());
  ASSERT_EQ(plain.size(), infinite.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].distance, infinite[i].distance);
  }
}

TEST(DynamicVpTree, CollectAllReturnsEverything) {
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 4});
  tree.insert_batch({5, 3, 8, 1, 9, 2});
  auto all = tree.collect_all();
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<double>{1, 2, 3, 5, 8, 9}));
}

TEST(DynamicVpTree, EmptyBatchIsNoop) {
  DynamicVpTree<double, L1> tree(L1{});
  tree.insert_batch({});
  EXPECT_TRUE(tree.empty());
}

TEST(DynamicVpTree, NZeroReturnsNothing) {
  DynamicVpTree<double, L1> tree(L1{});
  tree.insert_batch({1.0, 2.0});
  EXPECT_TRUE(tree.nearest(1.0, 0).empty());
}

TEST(DynamicVpTree, DuplicateElementsHandled) {
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 4});
  tree.insert_batch(std::vector<double>(100, 5.0));
  const auto got = tree.nearest(5.0, 10);
  ASSERT_EQ(got.size(), 10u);
  for (const auto& nb : got) EXPECT_EQ(nb.distance, 0.0);
}

TEST(DynamicVpTree, BatchBuildDepthIsLogarithmic) {
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 8});
  tree.insert_batch(random_points(4096, 11));
  // 4096/8 = 512 leaves => ideal depth ~10; allow generous slack.
  EXPECT_LE(tree.depth(), 24u);
}

// ---------- batched n-NN (nearest_batch_with) ----------
//
// Every batch result is checked against a brute-force oracle, not against
// nearest_with, which is the batch of one of the same walk.

// A DNA-like window: 8 codes over a 4-letter alphabet plus a unique id, so
// window distances tie all the time and only the tie order separates
// candidates at the n-th-neighbour boundary.
struct DnaItem {
  std::uint32_t id = 0;
  std::array<std::uint8_t, 8> codes{};
};

// Hamming distance with an early-abandoning variant and the id tie order.
struct HammingTie {
  double operator()(const DnaItem& a, const DnaItem& b) const {
    double d = 0;
    for (std::size_t i = 0; i < a.codes.size(); ++i) {
      d += a.codes[i] != b.codes[i] ? 1 : 0;
    }
    return d;
  }
  double bounded(const DnaItem& a, const DnaItem& b, double bound) const {
    double d = 0;
    for (std::size_t i = 0; i < a.codes.size(); ++i) {
      d += a.codes[i] != b.codes[i] ? 1 : 0;
      if (d > bound) return d;
    }
    return d;
  }
  bool tie_before(const DnaItem& a, const DnaItem& b) const {
    return a.id < b.id;
  }
};

// The same metric plus a batch leaf-scan hook, which also records the
// widest batch a leaf saw.
struct HammingScan : HammingTie {
  std::size_t* widest = nullptr;
  template <typename Admit>
  void scan_leaf(const DnaItem* const* targets, std::size_t k,
                 const DnaItem* items, std::size_t count,
                 const double* bounds, Admit&& admit) const {
    if (widest != nullptr) *widest = std::max(*widest, k);
    for (std::size_t t = 0; t < k; ++t) {
      double bound = bounds[t];
      for (std::size_t j = 0; j < count; ++j) {
        const double d = bounded(*targets[t], items[j], bound);
        if (d <= bound) bound = admit(t, j, d);
      }
    }
  }
};

std::vector<DnaItem> dna_items(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DnaItem> items(count);
  for (std::size_t i = 0; i < count; ++i) {
    items[i].id = static_cast<std::uint32_t>(i);
    for (auto& c : items[i].codes) c = static_cast<std::uint8_t>(rng.below(4));
  }
  return items;
}

// The n smallest items by (distance, id) within the cap.
std::vector<std::pair<double, std::uint32_t>> dna_oracle(
    const std::vector<DnaItem>& items, const DnaItem& target, std::size_t n,
    double cap) {
  std::vector<std::pair<double, std::uint32_t>> all;
  for (const DnaItem& item : items) {
    const double d = HammingTie{}(target, item);
    if (d <= cap) all.emplace_back(d, item.id);
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(n, all.size()));
  return all;
}

template <typename Metric>
void expect_batch_matches_oracle(const std::vector<DnaItem>& items,
                                 std::size_t bucket, const Metric& metric,
                                 const std::vector<DnaItem>& targets,
                                 std::size_t n, double cap,
                                 const std::string& what) {
  DynamicVpTree<DnaItem, HammingTie> tree(HammingTie{},
                                          {.bucket_capacity = bucket});
  tree.insert_batch(items);
  const auto got = tree.nearest_batch_with(
      metric, std::span<const DnaItem>(targets), n, cap);
  ASSERT_EQ(got.size(), targets.size()) << what;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const auto want = dna_oracle(items, targets[t], n, cap);
    ASSERT_EQ(got[t].size(), want.size()) << what << " target " << t;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[t][i].distance, want[i].first)
          << what << " target " << t << " rank " << i;
      EXPECT_EQ(got[t][i].item->id, want[i].second)
          << what << " target " << t << " rank " << i;
    }
  }
}

TEST(DynamicVpTreeBatch, TieHeavyBatchesMatchBruteForce) {
  const auto items = dna_items(700, 81);
  const auto targets = dna_items(40, 82);
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t bucket : {4UL, 32UL, 1024UL}) {
    for (const double cap : {0.0, 2.0, 3.0, inf}) {
      for (const std::size_t n : {1UL, 8UL, 16UL}) {
        const std::string what = "bucket " + std::to_string(bucket) +
                                 " cap " + std::to_string(cap) + " n " +
                                 std::to_string(n);
        expect_batch_matches_oracle(items, bucket, HammingTie{}, targets, n,
                                    cap, what + " item-wise");
        std::size_t widest = 0;
        expect_batch_matches_oracle(items, bucket, HammingScan{{}, &widest},
                                    targets, n, cap, what + " leaf scan");
        if (cap > 0.0) {
          EXPECT_GT(widest, 1u) << what;
        }
      }
    }
  }
}

TEST(DynamicVpTreeBatch, DuplicateTargetsGetEqualResults) {
  const auto items = dna_items(300, 83);
  auto targets = dna_items(5, 84);
  // The same window three times, and a target equal to a stored item.
  targets.push_back(targets[0]);
  targets.push_back(targets[0]);
  targets.push_back(items[17]);
  for (const std::size_t bucket : {4UL, 64UL}) {
    expect_batch_matches_oracle(items, bucket, HammingScan{}, targets, 8,
                                std::numeric_limits<double>::infinity(),
                                "bucket " + std::to_string(bucket));
  }
}

TEST(DynamicVpTreeBatch, MoreNeighborsThanItemsAndEmptyTree) {
  const auto items = dna_items(23, 85);
  const auto targets = dna_items(6, 86);
  const double inf = std::numeric_limits<double>::infinity();
  expect_batch_matches_oracle(items, 4, HammingScan{}, targets, 100, inf,
                              "n > size");
  expect_batch_matches_oracle(items, 4, HammingTie{}, targets, 100, inf,
                              "n > size item-wise");
  DynamicVpTree<DnaItem, HammingTie> empty(HammingTie{});
  const auto none = empty.nearest_batch_with(
      HammingScan{}, std::span<const DnaItem>(targets), 8, inf);
  ASSERT_EQ(none.size(), targets.size());
  for (const auto& result : none) EXPECT_TRUE(result.empty());
  const auto zero = DynamicVpTree<DnaItem, HammingTie>(HammingTie{})
                        .nearest_batch_with(
                            HammingScan{}, std::span<const DnaItem>(), 8, inf);
  EXPECT_TRUE(zero.empty());
}

// A real-valued metric without tie_before or a leaf hook: distances do not
// tie, so the batch walk must still find the exact n nearest.
TEST(DynamicVpTreeBatch, PlainMetricBatchesMatchBruteForce) {
  const auto points = random_points(900, 87);
  const auto targets = random_points(25, 88);
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 16});
  tree.insert_batch(points);
  for (const double cap : {0.0, 1.5, std::numeric_limits<double>::infinity()}) {
    const auto got = tree.nearest_batch_with(
        L1{}, std::span<const double>(targets), 12, cap);
    ASSERT_EQ(got.size(), targets.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
      auto want = brute_force_knn(points, targets[t], 12);
      std::erase_if(want, [&](double d) { return d > cap; });
      ASSERT_EQ(got[t].size(), want.size()) << "cap " << cap << " t " << t;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[t][i].distance, want[i]) << "cap " << cap << " t " << t;
      }
    }
  }
}

// ---------- VpPrefixTree ----------

std::vector<Window> sample_windows(std::size_t count, std::size_t length,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Window> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto sequence = workload::random_sequence(
        seq::Alphabet::kProtein, length, "w", rng);
    windows.emplace_back(sequence.codes().begin(), sequence.codes().end());
  }
  return windows;
}

const score::DistanceMatrix& protein_distance() {
  return score::default_distance(seq::Alphabet::kProtein);
}

TEST(VpPrefixTree, HashIsDeterministicAndLengthChecked) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(300, 8, 51));
  const auto probe = sample_windows(1, 8, 52)[0];
  EXPECT_EQ(tree.hash(probe), tree.hash(probe));
  const auto bad = sample_windows(1, 9, 53)[0];
  EXPECT_THROW(tree.hash(bad), InvalidArgument);
}

TEST(VpPrefixTree, IdenticalWindowsCollide) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 6});
  auto windows = sample_windows(500, 8, 54);
  tree.build(windows);
  const auto probe = sample_windows(1, 8, 55)[0];
  const Window copy = probe;
  EXPECT_EQ(tree.hash(probe), tree.hash(copy));
}

TEST(VpPrefixTree, PrefixEncodesDepth) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(600, 8, 56));
  // With the leading-1 convention, a prefix emitted at depth d lies in
  // [2^(d-1), 2^d).
  for (std::uint64_t prefix : tree.leaf_prefixes()) {
    EXPECT_GE(prefix, 1u);
    EXPECT_LT(prefix, 1u << tree.cutoff_depth());
  }
}

TEST(VpPrefixTree, HashAlwaysLandsOnALeafPrefix) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(400, 8, 57));
  const auto& leaves = tree.leaf_prefixes();
  for (const auto& probe : sample_windows(100, 8, 58)) {
    const auto h = tree.hash(probe);
    EXPECT_NE(std::find(leaves.begin(), leaves.end(), h), leaves.end())
        << "hash " << h << " not a known leaf prefix";
  }
}

TEST(VpPrefixTree, MultiHashContainsSinglePath) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 6});
  tree.build(sample_windows(500, 8, 59));
  for (const auto& probe : sample_windows(50, 8, 60)) {
    const auto single = tree.hash(probe);
    const auto multi = tree.hash_multi(probe, 5.0);
    EXPECT_NE(std::find(multi.begin(), multi.end(), single), multi.end());
  }
}

TEST(VpPrefixTree, ZeroEpsilonMatchesSinglePath) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 6});
  tree.build(sample_windows(500, 8, 61));
  for (const auto& probe : sample_windows(50, 8, 62)) {
    const auto multi = tree.hash_multi(probe, 0.0);
    // Ties (d == mu exactly) may still branch, but are measure-zero for
    // this distance; expect exactly the single path.
    ASSERT_EQ(multi.size(), 1u);
    EXPECT_EQ(multi[0], tree.hash(probe));
  }
}

TEST(VpPrefixTree, HugeEpsilonCoversAllLeaves) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(400, 8, 63));
  const auto probe = sample_windows(1, 8, 64)[0];
  const auto multi = tree.hash_multi(probe, 1e9);
  EXPECT_EQ(multi.size(), tree.leaf_prefixes().size());
}

TEST(VpPrefixTree, SimilarWindowsCollideMoreThanRandom) {
  // The LSH property: windows at small edit distance should share a group
  // hash far more often than unrelated windows.
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(2000, 8, 65));
  Rng rng(66);
  int similar_collisions = 0, random_collisions = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    auto base = workload::random_sequence(seq::Alphabet::kProtein, 8,
                                          "b", rng);
    auto similar_seq = workload::mutate_to_similarity(base, 0.875, "m", rng);
    Window w1(base.codes().begin(), base.codes().end());
    Window w2(similar_seq.codes().begin(), similar_seq.codes().end());
    similar_collisions += tree.hash(w1) == tree.hash(w2) ? 1 : 0;
    auto other = workload::random_sequence(seq::Alphabet::kProtein, 8,
                                           "o", rng);
    Window w3(other.codes().begin(), other.codes().end());
    random_collisions += tree.hash(w1) == tree.hash(w3) ? 1 : 0;
  }
  EXPECT_GT(similar_collisions, random_collisions + trials / 10)
      << "similar=" << similar_collisions << " random=" << random_collisions;
}

TEST(VpPrefixTree, EncodeDecodePreservesHashes) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 6});
  tree.build(sample_windows(600, 8, 67));
  CodecWriter writer;
  tree.encode(writer);
  CodecReader reader(writer.data());
  const auto restored = VpPrefixTree::decode(reader, &protein_distance());
  EXPECT_EQ(restored.window_length(), tree.window_length());
  EXPECT_EQ(restored.leaf_prefixes(), tree.leaf_prefixes());
  for (const auto& probe : sample_windows(100, 8, 68)) {
    EXPECT_EQ(restored.hash(probe), tree.hash(probe));
  }
}

TEST(VpPrefixTree, RejectsBadBuildInputs) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 4});
  EXPECT_THROW(tree.build({}), InvalidArgument);
  std::vector<Window> ragged = {{0, 1, 2}, {0, 1}};
  EXPECT_THROW(tree.build(ragged), InvalidArgument);
  EXPECT_THROW(tree.hash(Window{0, 1, 2}), InvalidArgument);
}

TEST(VpPrefixTree, TinySampleDegeneratesGracefully) {
  VpPrefixTree tree(&protein_distance(),
                    {.cutoff_depth = 6, .min_partition = 4});
  tree.build(sample_windows(2, 8, 69));
  // Sample below min_partition: single leaf with prefix 1; every hash
  // returns it.
  EXPECT_EQ(tree.leaf_prefixes(), std::vector<std::uint64_t>{1});
  const auto probe = sample_windows(1, 8, 70)[0];
  EXPECT_EQ(tree.hash(probe), 1u);
}

}  // namespace
}  // namespace mendel::vpt
