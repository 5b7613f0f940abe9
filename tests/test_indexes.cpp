// Tests for the R-trees (STR and dynamic): unit cases plus a shared
// property harness checking both query paths of every tree against brute
// force on randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "index/rtree_dynamic.hpp"
#include "index/str_tree.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sjc::index {
namespace {

std::vector<IndexEntry> random_entries(Rng& rng, std::size_t n, double extent,
                                       double max_size) {
  std::vector<IndexEntry> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0, extent);
    const double y = rng.uniform(0, extent);
    const double w = rng.uniform(0, max_size);
    const double h = rng.uniform(0, max_size);
    out.push_back({geom::Envelope(x, y, x + w, y + h), i});
  }
  return out;
}

std::vector<std::uint32_t> brute_force(const std::vector<IndexEntry>& entries,
                                       const geom::Envelope& q) {
  std::vector<std::uint32_t> out;
  for (const auto& e : entries) {
    if (e.env.intersects(q)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// STR tree unit tests
// ---------------------------------------------------------------------------

TEST(StrTree, EmptyTree) {
  const StrTree tree({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.query_ids(geom::Envelope(0, 0, 1, 1)).empty());
}

TEST(StrTree, SingleEntry) {
  const StrTree tree({{geom::Envelope(1, 1, 2, 2), 7}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.query_ids(geom::Envelope(0, 0, 3, 3)), std::vector<std::uint32_t>{7});
  EXPECT_TRUE(tree.query_ids(geom::Envelope(5, 5, 6, 6)).empty());
}

TEST(StrTree, BoundsCoverAllEntries) {
  Rng rng(1);
  const auto entries = random_entries(rng, 500, 100, 5);
  const StrTree tree(entries);
  for (const auto& e : entries) {
    EXPECT_TRUE(tree.bounds().contains(e.env));
  }
}

TEST(StrTree, HeightGrowsLogarithmically) {
  Rng rng(2);
  const StrTree small(random_entries(rng, 10, 100, 1));
  const StrTree large(random_entries(rng, 10000, 100, 1));
  EXPECT_LE(small.height(), 2u);
  EXPECT_LE(large.height(), 5u);
  EXPECT_GT(large.height(), small.height());
}

TEST(StrTree, RejectsTinyFanout) {
  EXPECT_THROW(StrTree({}, 1), InvalidArgument);
}

// size_bytes() feeds modeled DFS block and broadcast bytes, so it must not
// follow the class layout: these are the values the modeled digests in
// test_report_golden and perfbench/expected were recorded with.
TEST(StrTree, SizeBytesIsLayoutIndependent) {
  std::vector<IndexEntry> entries;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const double x = i;
    const double y = i % 7;
    entries.push_back({geom::Envelope(x, y, x + 1.5, y + 2.0), i});
  }
  EXPECT_EQ(StrTree({}).size_bytes(), 312u);
  EXPECT_EQ(StrTree(entries).size_bytes(), 8552u);
  EXPECT_EQ(StrTree(entries, 4).size_bytes(), 10712u);
}

// ---------------------------------------------------------------------------
// Dynamic R-tree unit tests
// ---------------------------------------------------------------------------

TEST(DynamicRTree, EmptyTree) {
  const DynamicRTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.query_ids(geom::Envelope(0, 0, 1, 1)).empty());
}

TEST(DynamicRTree, InsertAndQuery) {
  DynamicRTree tree;
  tree.insert(geom::Envelope(0, 0, 1, 1), 1);
  tree.insert(geom::Envelope(5, 5, 6, 6), 2);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.query_ids(geom::Envelope(0.5, 0.5, 0.6, 0.6)),
            std::vector<std::uint32_t>{1});
}

TEST(DynamicRTree, SplitsKeepAllEntries) {
  DynamicRTree tree(8);
  Rng rng(3);
  const auto entries = random_entries(rng, 1000, 50, 2);
  for (const auto& e : entries) tree.insert(e.env, e.id);
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.height(), 1u);
  // A query covering every entry returns each exactly once.
  auto all = tree.query_ids(geom::Envelope(-1, -1, 60, 60));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.size(), 1000u);
  EXPECT_EQ(all.front(), 0u);
  EXPECT_EQ(all.back(), 999u);
}

TEST(DynamicRTree, RejectsTinyNodeCapacity) {
  EXPECT_THROW(DynamicRTree(3), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Property: every index answers exactly like brute force.
// ---------------------------------------------------------------------------

template <std::uint32_t Fanout>
struct StrBuild {
  static std::string name() { return "str_fanout" + std::to_string(Fanout); }
  static StrTree build(std::vector<IndexEntry> entries) {
    return StrTree(std::move(entries), Fanout);
  }
};

template <std::uint32_t Capacity>
struct DynamicBuild {
  static std::string name() { return "dynamic_rtree_cap" + std::to_string(Capacity); }
  static DynamicRTree build(const std::vector<IndexEntry>& entries) {
    DynamicRTree tree(Capacity);
    for (const auto& e : entries) tree.insert(e.env, e.id);
    return tree;
  }
};

struct BuildName {
  template <typename Build>
  static std::string GetName(int) {
    return Build::name();
  }
};

template <typename Build>
class IndexEquivalence : public ::testing::Test {
 protected:
  // Checks query() and query_ids() against brute force: same id multiset,
  // and query_ids() reports exactly what query() visits, in the same order.
  template <typename Index>
  static void expect_matches(const Index& idx, const std::vector<IndexEntry>& entries,
                             const geom::Envelope& q, const std::string& tag) {
    std::vector<std::uint32_t> visited;
    idx.query(q, [&visited](std::uint32_t id) { visited.push_back(id); });
    EXPECT_EQ(idx.query_ids(q), visited) << Build::name() << " " << tag;
    std::sort(visited.begin(), visited.end());
    EXPECT_EQ(visited, brute_force(entries, q)) << Build::name() << " " << tag;
  }
};

using IndexBuilds = ::testing::Types<StrBuild<16>, StrBuild<4>, DynamicBuild<16>,
                                     DynamicBuild<8>>;
TYPED_TEST_SUITE(IndexEquivalence, IndexBuilds, BuildName);

TYPED_TEST(IndexEquivalence, MatchesBruteForceOnRandomWorkloads) {
  Rng rng(0xfeed);
  for (const std::size_t n : {0ULL, 1ULL, 7ULL, 100ULL, 2000ULL}) {
    const auto entries = random_entries(rng, n, 100, 4);
    const auto idx = TypeParam::build(entries);
    EXPECT_EQ(idx.size(), n);
    for (int q = 0; q < 100; ++q) {
      const double x = rng.uniform(-10, 110);
      const double y = rng.uniform(-10, 110);
      const geom::Envelope query(x, y, x + rng.uniform(0, 30), y + rng.uniform(0, 30));
      this->expect_matches(idx, entries, query, "n=" + std::to_string(n));
    }
  }
}

TYPED_TEST(IndexEquivalence, PointQueries) {
  Rng rng(0xbeef);
  const auto entries = random_entries(rng, 500, 50, 3);
  const auto idx = TypeParam::build(entries);
  for (int q = 0; q < 200; ++q) {
    const geom::Envelope query =
        geom::Envelope::of_point(rng.uniform(0, 55), rng.uniform(0, 55));
    this->expect_matches(idx, entries, query, "point");
  }
}

}  // namespace
}  // namespace sjc::index
