// Self-tests of the benchmark's own arithmetic and checks.
#include <gtest/gtest.h>

#include "bench.hpp"
#include "geom/wkt.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, NearestRankQuantiles) {
  EXPECT_EQ(quantile(ramp(100), 0.5), 50.0);
  EXPECT_EQ(quantile(ramp(100), 0.9), 90.0);
  EXPECT_EQ(quantile(ramp(100), 0.99), 99.0);
  EXPECT_EQ(quantile(ramp(1), 0.99), 1.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_TRUE(percentile_supported(100, 0.9));
  EXPECT_FALSE(percentile_supported(99, 0.9));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_TRUE(percentile_supported(200, 0.95));  // joins in half a serving run
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(DueTimeLatency, CountsGeneratorLatenessAndServiceTime) {
  // Due at 1.000 s, sent 2 ms late, answered 5 ms after admission.
  EXPECT_DOUBLE_EQ(due_latency_seconds(1.0, 1.002, 0.005), 0.007);
  // Sent on time: the latency is what the service measured.
  EXPECT_DOUBLE_EQ(due_latency_seconds(3.5, 3.5, 0.25), 0.25);
  // A stall that delays the send shows in the latency of the stalled query.
  EXPECT_GT(due_latency_seconds(0.0, 0.1, 0.001), 0.1);
}

std::vector<sjc::core::JoinPair> pairs() {
  std::vector<sjc::core::JoinPair> p;
  for (std::uint64_t i = 0; i < 50; ++i) p.push_back({i, i % 7});
  return p;
}

RunReport report_of(const std::vector<sjc::core::JoinPair>& p) {
  RunReport r;
  r.success = true;
  r.result_count = p.size();
  r.result_hash = sjc::core::hash_pairs_unordered(p);
  return r;
}

TEST(ErrorRate, ZeroWhenEveryOutcomeMatches) {
  const auto truth = pairs();
  const Expectation ok{sjc::StatusCode::kOk, {truth.size(), sjc::core::hash_pairs_unordered(truth)}};
  ErrorTally tally;
  tally.record(judge(ok, report_of(truth)));
  RunReport pipe;
  pipe.status = sjc::Status(sjc::StatusCode::kBrokenPipe, "pipe");
  tally.record(judge({sjc::StatusCode::kBrokenPipe, {}}, pipe));
  EXPECT_EQ(tally.attempted, 2u);
  EXPECT_EQ(tally.rate(), 0.0);
}

TEST(ErrorRate, OneDroppedPairIsWrong) {
  const auto truth = pairs();
  const Expectation ok{sjc::StatusCode::kOk, {truth.size(), sjc::core::hash_pairs_unordered(truth)}};
  auto dropped = truth;
  dropped.pop_back();
  ErrorTally tally;
  tally.record(judge(ok, report_of(truth)));
  tally.record(judge(ok, report_of(dropped)));
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_GT(tally.rate(), 0.0);
}

TEST(ErrorRate, SwappedPairWithSameCountIsWrong) {
  const auto truth = pairs();
  const Expectation ok{sjc::StatusCode::kOk, {truth.size(), sjc::core::hash_pairs_unordered(truth)}};
  auto swapped = truth;
  swapped.back().right_id += 1;
  EXPECT_FALSE(judge(ok, report_of(swapped)).empty());
}

TEST(ErrorRate, FlippedStatusIsWrong) {
  const auto truth = pairs();
  // A job the paper expects to break its pipe that succeeds instead.
  ErrorTally tally;
  tally.record(judge({sjc::StatusCode::kBrokenPipe, {}}, report_of(truth)));
  // A job expected to succeed that runs out of memory.
  RunReport oom;
  oom.status = sjc::Status(sjc::StatusCode::kOutOfMemory, "oom");
  tally.record(judge({sjc::StatusCode::kOk, {truth.size(), 0}}, oom));
  EXPECT_EQ(tally.failed, 2u);
  EXPECT_GT(tally.rate(), 0.0);
}

TEST(ModeledDigest, IgnoresOnlyPreparedCacheCounters) {
  RunReport a = report_of(pairs());
  a.counters.add("refine.candidates", 10);
  RunReport b = a;
  b.counters.add("join.prepared_cache_hits", 3);
  b.counters.add("join.prepared_cache_misses", 4);
  EXPECT_EQ(modeled_digest(a), modeled_digest(b));
  b.counters.add("refine.candidates", 1);
  EXPECT_NE(modeled_digest(a), modeled_digest(b));
  RunReport c = a;
  sjc::cluster::PhaseReport phase;
  phase.name = "join/local/map";
  phase.sim_seconds = 1.5;
  c.metrics.add_phase(phase);
  EXPECT_NE(modeled_digest(a), modeled_digest(c));
}

TEST(OutcomeTable, PaperFailureMatrix) {
  EXPECT_EQ(parse_status_code("BROKEN_PIPE"), sjc::StatusCode::kBrokenPipe);
  EXPECT_EQ(parse_status_code("OUT_OF_MEMORY"), sjc::StatusCode::kOutOfMemory);
  EXPECT_THROW(parse_status_code("NOPE"), sjc::SjcError);
}

TEST(Oracle, BruteForceMatchesHandCountedPointInPolygon) {
  using sjc::geom::Feature;
  // Two unit squares side by side; one point inside each, one on their
  // shared edge x = 1, one outside both.
  std::vector<Feature> polys = {
      {1, sjc::geom::from_wkt("POLYGON((0 0,1 0,1 1,0 1,0 0))")},
      {2, sjc::geom::from_wkt("POLYGON((1 0,2 0,2 1,1 1,1 0))")}};
  std::vector<Feature> points = {{10, sjc::geom::from_wkt("POINT(0.5 0.5)")},
                                 {11, sjc::geom::from_wkt("POINT(1.5 0.5)")},
                                 {12, sjc::geom::from_wkt("POINT(3 3)")},
                                 {13, sjc::geom::from_wkt("POINT(1 0.5)")}};
  const Dataset left("points", points, 0);
  const Dataset right("polys", polys, 0);
  const auto answer = oracle_join(left, right, JoinPredicate::kWithin, 2);
  // `within` is "covered by": the boundary point pairs with both squares.
  const std::vector<sjc::core::JoinPair> want = {{10, 1}, {11, 2}, {13, 1}, {13, 2}};
  EXPECT_EQ(answer.count, 4u);
  EXPECT_EQ(answer.hash, sjc::core::hash_pairs_unordered(want));
  // The library's join gives the same pairs, boundary point included.
  sjc::core::JoinQueryConfig query;
  query.predicate = JoinPredicate::kWithin;
  for (const auto system : {SystemKind::kHadoopGisSim, SystemKind::kSpatialHadoopSim,
                            SystemKind::kSpatialSparkSim}) {
    const RunReport report =
        sjc::core::run_spatial_join(system, left, right, query, sjc::core::ExecutionConfig{});
    EXPECT_TRUE(report.status.ok()) << report.status.to_string();
    EXPECT_EQ(report.result_count, answer.count) << system_key(system);
    EXPECT_EQ(report.result_hash, answer.hash) << system_key(system);
  }
}

TEST(PhaseGroups, SystemPhaseNames) {
  EXPECT_STREQ(phase_group("A/1-convert/map"), "ingest");
  EXPECT_STREQ(phase_group("A.text.parse"), "ingest");
  EXPECT_STREQ(phase_group("A/partition/map"), "partition");
  EXPECT_STREQ(phase_group("A.text.parse.assign"), "partition");
  EXPECT_STREQ(phase_group("A/partition/reduce"), "shuffle");
  EXPECT_STREQ(phase_group("A.text.parse.assign.groupByKey"), "shuffle");
  EXPECT_STREQ(phase_group("join/local/map"), "join");
  EXPECT_STREQ(phase_group("A.text.parse.assign.groupByKey.join.local-join"), "join");
}

}  // namespace
}  // namespace perfbench
