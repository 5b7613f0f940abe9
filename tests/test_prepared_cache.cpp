// Tests for the prepared-refiner cache shared across partition pairs by the
// local-join kernel.
#include <gtest/gtest.h>

#include <barrier>
#include <cmath>
#include <numbers>
#include <thread>
#include <vector>

#include "geom/batch_refine.hpp"
#include "geom/prepared_cache.hpp"
#include "util/status.hpp"

namespace sjc::geom {
namespace {

Geometry square(double x, double y, double side = 1.0) {
  return Geometry::polygon(
      {{x, y}, {x + side, y}, {x + side, y + side}, {x, y + side}, {x, y}});
}

TEST(PreparedCache, MissThenHit) {
  PreparedCache cache;
  const Geometry g = square(0, 0, 4);

  const auto first = cache.acquire_refiner(7, g);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto second = cache.acquire_refiner(7, g);
  EXPECT_EQ(second.get(), first.get());  // same refiner shared
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);

  // The handle works like a directly built refiner.
  RefineStats stats;
  EXPECT_TRUE(first->intersects(Geometry::point(2, 2), stats));
  EXPECT_FALSE(first->intersects(Geometry::point(9, 9), stats));
}

TEST(PreparedCache, HandleOutlivesSourceGeometry) {
  PreparedCache cache;
  std::shared_ptr<const BatchRefiner> handle;
  {
    const Geometry transient = square(0, 0, 4);
    handle = cache.acquire_refiner(1, transient);
  }  // source destroyed; the cache's owned copy must keep the handle valid
  RefineStats stats;
  EXPECT_TRUE(handle->contains(Geometry::point(1, 1), stats));
}

TEST(PreparedCache, CapacityEvictsLeastRecentlyUsed) {
  PreparedCache cache(/*capacity=*/2);
  const auto g0 = square(0, 0);
  const auto g1 = square(10, 0);
  const auto g2 = square(20, 0);

  cache.acquire_refiner(0, g0);
  cache.acquire_refiner(1, g1);
  cache.acquire_refiner(0, g0);                        // bump 0: id 1 is now LRU
  const auto held = cache.acquire_refiner(1, g1);      // bump 1: id 0 is now LRU
  cache.acquire_refiner(2, g2);                        // evicts id 0
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);

  // Id 0 was evicted (re-acquire misses), ids 1 and 2 still hit.
  const auto h = cache.hits();
  const auto m = cache.misses();
  cache.acquire_refiner(1, g1);
  cache.acquire_refiner(2, g2);
  EXPECT_EQ(cache.hits(), h + 2);
  cache.acquire_refiner(0, g0);
  EXPECT_EQ(cache.misses(), m + 1);

  // The handle acquired before the eviction churn stays valid throughout.
  RefineStats stats;
  EXPECT_TRUE(held->intersects(Geometry::point(10.5, 0.5), stats));
}

TEST(PreparedCache, RejectsZeroCapacity) {
  EXPECT_THROW(PreparedCache(0), InvalidArgument);
}

TEST(PreparedCache, ClearResetsEntriesButKeepsCounters) {
  PreparedCache cache;
  cache.acquire_refiner(3, square(0, 0));
  cache.acquire_refiner(3, square(0, 0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  cache.acquire_refiner(3, square(0, 0));
  EXPECT_EQ(cache.misses(), 2u);
}

// Racing misses on one id: eight tasks released together by a barrier all
// look the id up before any of them can finish building (a ring of several
// thousand vertices makes each build long enough to overlap). Only the
// insert that wins counts a miss; every loser counts a hit and shares the
// winner's handle — so the split is the same under any interleaving.
TEST(PreparedCache, ConcurrentMissesOnOneIdCountOneMiss) {
  constexpr int kThreads = 8;
  constexpr int kVertices = 6000;
  std::vector<Coord> ring;
  ring.reserve(kVertices + 1);
  for (int i = 0; i < kVertices; ++i) {
    const double a = 2.0 * std::numbers::pi * i / kVertices;
    ring.push_back({50.0 + 40.0 * std::cos(a), 50.0 + 40.0 * std::sin(a)});
  }
  ring.push_back(ring.front());
  const Geometry circle = Geometry::polygon(ring);

  PreparedCache cache;
  std::barrier start(kThreads);
  std::vector<std::shared_ptr<const BatchRefiner>> handles(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      handles[t] = cache.acquire_refiner(42, circle);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(cache.lookups(), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.size(), 1u);
  for (const auto& handle : handles) EXPECT_EQ(handle.get(), handles[0].get());
  RefineStats stats;
  EXPECT_TRUE(handles[0]->contains(Geometry::point(50.0, 50.0), stats));
}

// Two threads hammer a small cache with overlapping id ranges so hits,
// racing misses on the same id, and evictions all interleave. Run under
// the ASan/UBSan CI job (and TSan where enabled) this exercises the
// locking; the assertions check the accounting stays consistent.
TEST(PreparedCache, TwoThreadHammer) {
  PreparedCache cache(/*capacity=*/8);
  constexpr int kRounds = 2000;
  constexpr std::uint64_t kIds = 16;

  std::vector<Geometry> geoms;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    geoms.push_back(square(static_cast<double>(id) * 10.0, 0, 4));
  }

  auto worker = [&](std::uint64_t stride) {
    RefineStats stats;
    for (int i = 0; i < kRounds; ++i) {
      const std::uint64_t id = (static_cast<std::uint64_t>(i) * stride) % kIds;
      const auto refiner = cache.acquire_refiner(id, geoms[id]);
      ASSERT_NE(refiner, nullptr);
      // Probe the centre of the square this id maps to: a handle for the
      // wrong geometry (torn entry) would fail this.
      const double cx = static_cast<double>(id) * 10.0 + 2.0;
      ASSERT_TRUE(refiner->contains(Geometry::point(cx, 2.0), stats));
    }
  };
  std::thread a(worker, 3);
  std::thread b(worker, 5);
  a.join();
  b.join();

  EXPECT_EQ(cache.hits() + cache.misses(), 2u * kRounds);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_LE(cache.size(), 8u);
}

// The serving configuration: one cache shared by many queries building
// batch refiners for the SAME ids concurrently. Four threads interleave
// lookups over overlapping id ranges through LRU churn; run under the TSan
// CI job this is the shared-cache race check. The invariant the counters
// must keep under any interleaving: hits + misses == lookups.
TEST(PreparedCache, SharedCacheFourThreadHammer) {
  PreparedCache cache(/*capacity=*/8);
  constexpr int kRounds = 1500;
  constexpr std::uint64_t kIds = 16;

  std::vector<Geometry> geoms;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    geoms.push_back(square(static_cast<double>(id) * 10.0, 0, 4));
  }

  auto worker = [&](std::uint64_t stride) {
    RefineStats stats;
    for (int i = 0; i < kRounds; ++i) {
      const std::uint64_t id = (static_cast<std::uint64_t>(i) * stride) % kIds;
      const auto refiner = cache.acquire_refiner(id, geoms[id]);
      ASSERT_NE(refiner, nullptr);
      // A refiner built from a torn entry (or against the wrong geometry
      // copy) would answer the centre probe wrong.
      const double cx = static_cast<double>(id) * 10.0 + 2.0;
      ASSERT_TRUE(refiner->intersects(Geometry::point(cx, 2.0), stats));
    }
  };

  std::thread a(worker, 3);
  std::thread b(worker, 7);
  std::thread c(worker, 5);
  std::thread d(worker, 11);
  a.join();
  b.join();
  c.join();
  d.join();

  // Counter balance under concurrency — the serving-mode invariant.
  EXPECT_EQ(cache.lookups(), 4u * kRounds);
  EXPECT_EQ(cache.hits() + cache.misses(), cache.lookups());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_LE(cache.size(), 8u);
}

}  // namespace
}  // namespace sjc::geom
