// Tests for the shared local-join (filter + refine) building block and the
// reference-point duplicate-avoidance machinery.
#include <gtest/gtest.h>

#include <set>

#include "core/local_join.hpp"
#include "geom/predicates.hpp"
#include "util/rng.hpp"

namespace sjc::core {
namespace {

std::vector<geom::Feature> point_features(const std::vector<geom::Coord>& coords,
                                          std::uint64_t base_id = 0) {
  std::vector<geom::Feature> out;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    out.push_back({base_id + i, geom::Geometry::point(coords[i].x, coords[i].y)});
  }
  return out;
}

/// Joins `left` x `right` keeping every refined pair (no dedup filter).
std::vector<JoinPair> join_all(const std::vector<geom::Feature>& left,
                               const std::vector<geom::Feature>& right,
                               const LocalJoinSpec& spec) {
  LocalJoinScratch scratch;
  std::vector<JoinPair> out;
  run_local_join(std::span<const geom::Feature>(left),
                 std::span<const geom::Feature>(right), spec, AcceptAllPairs{}, scratch,
                 out);
  return out;
}

TEST(ReferencePoint, TopLeftOfIntersection) {
  const geom::Envelope a(0, 0, 4, 4);
  const geom::Envelope b(2, 1, 6, 5);
  const geom::Coord p = reference_point(a, b);
  EXPECT_EQ(p.x, 2.0);
  EXPECT_EQ(p.y, 1.0);
  // Symmetric.
  const geom::Coord q = reference_point(b, a);
  EXPECT_EQ(q.x, p.x);
  EXPECT_EQ(q.y, p.y);
}

TEST(EvaluatePredicate, AllThreePredicates) {
  const auto& engine = geom::GeometryEngine::prepared();
  const geom::Geometry poly =
      geom::Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}});
  const geom::Geometry inside = geom::Geometry::point(2, 2);
  const geom::Geometry outside = geom::Geometry::point(7, 2);
  EXPECT_TRUE(evaluate_predicate(engine, JoinPredicate::kIntersects, 0, inside, poly));
  EXPECT_TRUE(evaluate_predicate(engine, JoinPredicate::kWithin, 0, inside, poly));
  EXPECT_FALSE(evaluate_predicate(engine, JoinPredicate::kWithin, 0, outside, poly));
  EXPECT_TRUE(
      evaluate_predicate(engine, JoinPredicate::kWithinDistance, 3.0, outside, poly));
  EXPECT_FALSE(
      evaluate_predicate(engine, JoinPredicate::kWithinDistance, 2.0, outside, poly));
}

TEST(LocalJoin, EmptySidesProduceNothing) {
  EXPECT_TRUE(join_all({}, {}, LocalJoinSpec{}).empty());
}

TEST(LocalJoin, PointInPolygonPairs) {
  const auto left = point_features({{1, 1}, {5, 5}, {2, 3}});
  std::vector<geom::Feature> right = {
      {100, geom::Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}})}};
  LocalJoinSpec spec;
  spec.predicate = JoinPredicate::kWithin;
  const std::vector<JoinPair> out = join_all(left, right, spec);
  std::set<JoinPair> got(out.begin(), out.end());
  EXPECT_EQ(got, (std::set<JoinPair>{{0, 100}, {2, 100}}));
}

TEST(LocalJoin, EnginesProduceIdenticalPairs) {
  Rng rng(99);
  std::vector<geom::Feature> left;
  for (std::uint64_t i = 0; i < 300; ++i) {
    left.push_back({i, geom::Geometry::point(rng.uniform(0, 50), rng.uniform(0, 50))});
  }
  std::vector<geom::Feature> right;
  for (std::uint64_t i = 0; i < 30; ++i) {
    const double x = rng.uniform(0, 45);
    const double y = rng.uniform(0, 45);
    right.push_back({i, geom::Geometry::polygon({{x, y}, {x + 5, y}, {x + 5, y + 5},
                                                 {x, y + 5}, {x, y}})});
  }
  const auto run_with = [&](const geom::GeometryEngine& engine) {
    LocalJoinSpec spec;
    spec.engine = &engine;
    spec.predicate = JoinPredicate::kWithin;
    std::vector<JoinPair> out = join_all(left, right, spec);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(run_with(geom::GeometryEngine::simple()),
            run_with(geom::GeometryEngine::prepared()));
}

TEST(LocalJoin, AllAlgorithmsProduceIdenticalPairs) {
  Rng rng(7);
  std::vector<geom::Feature> left;
  std::vector<geom::Feature> right;
  for (std::uint64_t i = 0; i < 150; ++i) {
    const double x = rng.uniform(0, 30);
    const double y = rng.uniform(0, 30);
    left.push_back({i, geom::Geometry::line_string({{x, y}, {x + 2, y + 2}})});
    const double u = rng.uniform(0, 30);
    const double v = rng.uniform(0, 30);
    right.push_back({i, geom::Geometry::line_string({{u, v + 2}, {u + 2, v}})});
  }
  std::vector<std::vector<JoinPair>> results;
  for (const auto algo :
       {index::LocalJoinAlgorithm::kPlaneSweep, index::LocalJoinAlgorithm::kSyncTraversal,
        index::LocalJoinAlgorithm::kIndexedNestedLoop,
        index::LocalJoinAlgorithm::kIndexedNestedLoopDynamic,
        index::LocalJoinAlgorithm::kNestedLoop}) {
    LocalJoinSpec spec;
    spec.algorithm = algo;
    std::vector<JoinPair> out = join_all(left, right, spec);
    std::sort(out.begin(), out.end());
    results.push_back(std::move(out));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);
  }
  EXPECT_GT(results[0].size(), 0u);
}

// Cross-algorithm x cross-path equivalence: every MBR-join algorithm,
// through the scratch-reusing path with and without a PreparedCache, must
// produce the same pair multiset on seeded random workloads.
TEST(LocalJoin, AllAlgorithmsAndPathsProduceIdenticalPairs) {
  for (const std::uint64_t seed : {11u, 23u, 37u}) {
    Rng rng(seed);
    std::vector<geom::Feature> left;
    std::vector<geom::Feature> right;
    for (std::uint64_t i = 0; i < 120; ++i) {
      const double x = rng.uniform(0, 25);
      const double y = rng.uniform(0, 25);
      left.push_back({i, geom::Geometry::line_string({{x, y}, {x + 2, y + 2}})});
      const double u = rng.uniform(0, 25);
      const double v = rng.uniform(0, 25);
      right.push_back({1000 + i, geom::Geometry::polygon(
                                     {{u, v}, {u + 3, v}, {u + 3, v + 3},
                                      {u, v + 3}, {u, v}})});
    }

    // Scratch and cache are shared across all algorithm runs on purpose:
    // reuse across heterogeneous calls must not leak state between runs.
    LocalJoinScratch scratch;
    geom::PreparedCache cache;
    std::vector<std::vector<JoinPair>> results;
    for (const auto algo :
         {index::LocalJoinAlgorithm::kPlaneSweep,
          index::LocalJoinAlgorithm::kSyncTraversal,
          index::LocalJoinAlgorithm::kIndexedNestedLoop,
          index::LocalJoinAlgorithm::kIndexedNestedLoopDynamic,
          index::LocalJoinAlgorithm::kNestedLoop}) {
      LocalJoinSpec spec;
      spec.algorithm = algo;

      std::vector<JoinPair> via_template;
      run_local_join(std::span<const geom::Feature>(left),
                     std::span<const geom::Feature>(right), spec, AcceptAllPairs{},
                     scratch, via_template);
      std::sort(via_template.begin(), via_template.end());
      results.push_back(std::move(via_template));

      spec.prepared_cache = &cache;
      std::vector<JoinPair> via_cache;
      run_local_join(std::span<const geom::Feature>(left),
                     std::span<const geom::Feature>(right), spec, AcceptAllPairs{},
                     scratch, via_cache);
      std::sort(via_cache.begin(), via_cache.end());
      results.push_back(std::move(via_cache));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i], results[0]) << "seed " << seed << " variant " << i;
    }
    EXPECT_GT(results[0].size(), 0u);
    // Second and later algorithms re-bind the same right features: the
    // cache must have served hits (engine default is Prepared).
    EXPECT_GT(cache.hits(), 0u);
  }
}

/// Brute-force ground truth: every (left, right) pair tested with the naive
/// reference predicates — no MBR filter, no index, no prepared structures.
std::vector<JoinPair> naive_oracle(const std::vector<geom::Feature>& left,
                                   const std::vector<geom::Feature>& right,
                                   JoinPredicate predicate, double distance) {
  std::vector<JoinPair> out;
  for (const auto& l : left) {
    for (const auto& r : right) {
      bool hit = false;
      switch (predicate) {
        case JoinPredicate::kIntersects:
          hit = geom::intersects_naive(l.geometry, r.geometry);
          break;
        case JoinPredicate::kWithin:
          hit = geom::contains_naive(r.geometry, l.geometry);
          break;
        case JoinPredicate::kWithinDistance:
          hit = geom::within_distance_naive(l.geometry, r.geometry, distance);
          break;
      }
      if (hit) out.push_back({l.id, r.id});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Three independent refinement paths must agree: the Prepared engine's
// batched BatchRefiner path (with and without a PreparedCache), the Simple
// engine's per-pair path, and a nested loop over the naive predicates. The
// two engines must emit the same pairs in the same order, the oracle must
// hold the same pair set, and the refine.* counters must account every
// candidate on both engines.
TEST(LocalJoin, PreparedSimpleAndNaiveOracleAgreeWithAccounting) {
  for (const std::uint64_t seed : {5u, 17u}) {
    Rng rng(seed);
    std::vector<geom::Feature> left;
    std::vector<geom::Feature> right;
    for (std::uint64_t i = 0; i < 100; ++i) {
      const double x = rng.uniform(0, 25);
      const double y = rng.uniform(0, 25);
      // Mixed probe types so the batched point pass and the scalar
      // dispatch both engage.
      if (i % 3 == 0) {
        left.push_back({i, geom::Geometry::point(x, y)});
      } else {
        left.push_back({i, geom::Geometry::line_string({{x, y}, {x + 2, y + 2}})});
      }
      const double u = rng.uniform(0, 25);
      const double v = rng.uniform(0, 25);
      right.push_back({1000 + i, geom::Geometry::polygon(
                                     {{u, v}, {u + 3, v}, {u + 3, v + 3},
                                      {u, v + 3}, {u, v}})});
    }
    for (const auto predicate :
         {JoinPredicate::kIntersects, JoinPredicate::kWithin,
          JoinPredicate::kWithinDistance}) {
      const double distance = predicate == JoinPredicate::kWithinDistance ? 1.5 : 0.0;
      const std::string tag =
          "seed " + std::to_string(seed) + " predicate " + join_predicate_name(predicate);
      const auto run = [&](const geom::GeometryEngine& engine,
                           geom::PreparedCache* cache) {
        cluster::Counters counters;
        LocalJoinSpec spec;
        spec.engine = &engine;
        spec.predicate = predicate;
        spec.within_distance = distance;
        spec.prepared_cache = cache;
        spec.refine_counters = &counters;
        std::vector<JoinPair> out = join_all(left, right, spec);
        return std::pair(std::move(out), counters.snapshot());
      };
      geom::PreparedCache cache;
      const auto [prepared, prepared_counters] =
          run(geom::GeometryEngine::prepared(), nullptr);
      const auto [cached, cached_counters] =
          run(geom::GeometryEngine::prepared(), &cache);
      const auto [simple, simple_counters] = run(geom::GeometryEngine::simple(), nullptr);

      // Same pairs, same emission order, on every engine path.
      EXPECT_EQ(prepared, simple) << tag;
      EXPECT_EQ(cached, simple) << tag;
      EXPECT_EQ(cached_counters, prepared_counters) << tag;
      EXPECT_GT(simple.size(), 0u) << tag;
      // The same pair set as the brute-force oracle.
      std::vector<JoinPair> sorted = simple;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, naive_oracle(left, right, predicate, distance)) << tag;

      const auto get = [](const std::map<std::string, std::uint64_t>& m,
                          const char* key) {
        const auto it = m.find(key);
        return it == m.end() ? std::uint64_t{0} : it->second;
      };
      const std::uint64_t cand = get(simple_counters, "refine.candidates");
      EXPECT_EQ(get(prepared_counters, "refine.candidates"), cand) << tag;
      EXPECT_GT(cand, 0u) << tag;
      // Simple engine: every candidate is an exact test.
      EXPECT_EQ(get(simple_counters, "refine.exact_tests"), cand) << tag;
      EXPECT_EQ(get(simple_counters, "refine.early_accepts"), 0u) << tag;
      EXPECT_EQ(get(simple_counters, "refine.early_rejects"), 0u) << tag;
      // Prepared engine: the three buckets partition the candidates.
      EXPECT_EQ(get(prepared_counters, "refine.exact_tests") +
                    get(prepared_counters, "refine.early_accepts") +
                    get(prepared_counters, "refine.early_rejects"),
                cand)
          << tag;
      // Both engines: every exact test is classified fastpath or slowpath
      // by the adaptive exact predicate.
      for (const auto* counters : {&simple_counters, &prepared_counters}) {
        EXPECT_EQ(get(*counters, "refine.exact_fastpath") +
                      get(*counters, "refine.exact_slowpath"),
                  get(*counters, "refine.exact_tests"))
            << tag;
      }
    }
  }
}

TEST(LocalJoin, AcceptFilterDropsPairs) {
  const auto left = point_features({{1, 1}, {2, 2}});
  std::vector<geom::Feature> right = {
      {9, geom::Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}})}};
  LocalJoinSpec spec;
  spec.predicate = JoinPredicate::kWithin;
  LocalJoinScratch scratch;
  std::vector<JoinPair> out;
  run_local_join(std::span<const geom::Feature>(left),
                 std::span<const geom::Feature>(right), spec,
                 [](const geom::Envelope& le, const geom::Envelope&) {
                   return le.min_x() > 1.5;  // keep only the (2,2) point
                 },
                 scratch, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].left_id, 1u);
}

TEST(LocalJoin, WithinDistancePredicate) {
  const auto left = point_features({{0, 0}, {0, 10}});
  std::vector<geom::Feature> right = {
      {5, geom::Geometry::line_string({{3, -5}, {3, 5}})}};
  LocalJoinSpec spec;
  spec.predicate = JoinPredicate::kWithinDistance;
  spec.within_distance = 4.0;
  const std::vector<JoinPair> out = join_all(left, right, spec);
  // (0,0) is 3 away from the line; (0,10) is ~5.8 away.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].left_id, 0u);
}

TEST(HashPairs, OrderIndependentAndMultisetSensitive) {
  const std::vector<JoinPair> a = {{1, 2}, {3, 4}};
  const std::vector<JoinPair> b = {{3, 4}, {1, 2}};
  const std::vector<JoinPair> c = {{1, 2}};
  const std::vector<JoinPair> d = {{1, 2}, {3, 5}};
  EXPECT_EQ(hash_pairs_unordered(a), hash_pairs_unordered(b));
  EXPECT_NE(hash_pairs_unordered(a), hash_pairs_unordered(c));
  EXPECT_NE(hash_pairs_unordered(a), hash_pairs_unordered(d));
  EXPECT_EQ(hash_pairs_unordered({}), 0u);
}

TEST(Config, EffectiveTargetPartitions) {
  JoinQueryConfig query;
  const auto ws = cluster::ClusterSpec::workstation();
  EXPECT_EQ(effective_target_partitions(query, ws), 128u);
  query.target_partitions = 42;
  EXPECT_EQ(effective_target_partitions(query, ws), 42u);
  query.target_partitions = 0;
  const auto big = cluster::ClusterSpec::ec2(12);  // 96 slots -> 192 cells
  EXPECT_EQ(effective_target_partitions(query, big), 192u);
}

TEST(Config, EffectiveSampleRateFloors) {
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.01, 1000000, 128), 0.01);
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.01, 40, 128), 1.0);
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.5, 40, 128), 1.0);
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.01, 0, 128), 1.0);
  // Floor = 4 * cells / size.
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.0, 1024, 128), 0.5);
}

}  // namespace
}  // namespace sjc::core
