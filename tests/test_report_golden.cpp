// Golden modeled digests for the configurations the repository benchmark's
// 18 default-config digests do not reach: shuffle filter off, eager skew
// repartitioning, a within-distance query, SpatialSpark's broadcast and
// cost-based plans, SpatialHadoop's pre-indexed join, malformed-row
// quarantine, failed runs (a SpatialHadoop task failure in the local join
// and one in a partition map, whose counters must survive the throw), and
// one resident query per system.
//
// Every case runs under VirtualTimeGuard, so its RunReport is a pure
// function of the cost model; the digest covers the same fields as
// perfbench/src/checks.cpp (status, result count and hash, IA/IB/DJ/TOT,
// peak memory, attempts, every phase's metrics, and every counter except
// the PreparedCache hit/miss split). A changed digest means a modeled
// quantity moved: fix the code, or re-record the entry and say why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>

#include "serving/resident_catalog.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/stopwatch.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

using core::RunReport;
using core::SystemKind;

// FNV-1a over the canonical text of the modeled quantities (a local copy
// of the repository benchmark's digest, so the two cannot drift apart
// silently: both are pinned to recorded values).
class Digest {
 public:
  void text(const std::string& s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;
    h_ *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) { text(std::to_string(v)); }
  void real(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    text(buf);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t modeled_digest(const RunReport& report) {
  Digest d;
  d.text(status_code_name(report.status.code()));
  d.u64(report.result_count);
  d.u64(report.result_hash);
  d.real(report.index_a_seconds);
  d.real(report.index_b_seconds);
  d.real(report.join_seconds);
  d.real(report.total_seconds);
  d.u64(report.peak_memory_bytes);
  d.u64(report.attempts_used);
  for (const auto& p : report.metrics.phases()) {
    d.text(p.name);
    d.real(p.sim_seconds);
    d.u64(p.bytes_read);
    d.u64(p.bytes_written);
    d.u64(p.bytes_shuffled);
    d.u64(p.task_count);
    d.u64(p.max_task_pipe_bytes);
    d.u64(p.task_attempts);
    d.u64(p.speculative_clones);
    d.real(p.wasted_seconds);
    d.u64(p.recomputed_partitions);
    d.u64(p.rereplicated_bytes);
    d.u64(p.commits_published);
    d.u64(p.commits_rejected);
    d.u64(p.attempts_aborted);
    d.u64(p.nodes_quarantined);
  }
  for (const auto& [name, value] : report.counters.snapshot()) {
    if (name == "join.prepared_cache_hits" || name == "join.prepared_cache_misses") continue;
    d.text(name);
    d.u64(value);
  }
  return d.value();
}

struct Inputs {
  workload::Dataset points;
  workload::Dataset polys;
  workload::Dataset roads;
  core::ExecutionConfig exec;

  static const Inputs& instance() {
    static const Inputs inputs = [] {
      Inputs in;
      workload::WorkloadConfig wc;
      wc.scale = 1e-4;
      in.points = workload::generate(workload::DatasetId::kTaxi1m, wc);
      in.polys = workload::generate(workload::DatasetId::kNycb, wc);
      in.roads = workload::generate(workload::DatasetId::kEdges01, wc);
      in.exec.cluster = cluster::ClusterSpec::workstation();
      in.exec.data_scale = 1.0 / wc.scale;
      return in;
    }();
    return inputs;
  }
};

plan::SkewPolicy eager_skew() {
  plan::SkewPolicy policy;
  policy.hotspot_factor = 1.5;
  policy.min_cell_records = 4;
  policy.max_rounds = 2;
  return policy;
}

core::JoinQueryConfig pip_query() {
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  return query;
}

core::JoinQueryConfig distance_query() {
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithinDistance;
  query.within_distance = 250.0;
  return query;
}

/// Runs one resident query against an entry built for `query`.
RunReport resident_query(const Inputs& in, SystemKind system,
                         const core::JoinQueryConfig& query) {
  serving::ResidentEntryConfig config;
  config.system = system;
  config.build_query = query;
  config.exec = in.exec;
  serving::ResidentCatalog catalog;
  const auto entry = catalog.install("golden", in.points, in.polys, config);
  return entry->run_join(query);
}

struct GoldenCase {
  const char* name;
  std::uint64_t digest;
  std::function<RunReport(const Inputs&)> run;
  /// For an injected task failure: the phase whose task exhausted its
  /// attempts, which the status message names first.
  const char* failing_phase = nullptr;
};

std::vector<GoldenCase> golden_cases() {
  using namespace systems;
  return {
      {"hadoopgis/filter-off", 0xb3657bdf5601d7e4ULL,
       [](const Inputs& in) {
         HadoopGisConfig c;
         c.policy.shuffle_filter = false;
         return run_hadoop_gis(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"spatialhadoop/filter-off", 0x8f01e64fe908c7e4ULL,
       [](const Inputs& in) {
         SpatialHadoopConfig c;
         c.policy.shuffle_filter = false;
         return run_spatial_hadoop(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"spatialspark/filter-off", 0x1eac7d73cb59ae57ULL,
       [](const Inputs& in) {
         SpatialSparkConfig c;
         c.policy.shuffle_filter = false;
         return run_spatial_spark(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"hadoopgis/repartition", 0x8a96dd7b67c2423dULL,
       [](const Inputs& in) {
         HadoopGisConfig c;
         c.policy.repartition = true;
         c.policy.skew = eager_skew();
         return run_hadoop_gis(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"spatialhadoop/repartition", 0xdcaad2d78029cba0ULL,
       [](const Inputs& in) {
         SpatialHadoopConfig c;
         c.policy.repartition = true;
         c.policy.skew = eager_skew();
         return run_spatial_hadoop(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"spatialspark/repartition", 0x757f6aa7bf985174ULL,
       [](const Inputs& in) {
         SpatialSparkConfig c;
         c.policy.repartition = true;
         c.policy.skew = eager_skew();
         return run_spatial_spark(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"hadoopgis/within-distance", 0x8871baab1d216336ULL,
       [](const Inputs& in) {
         return run_hadoop_gis(in.points, in.roads, distance_query(), in.exec);
       }},
      {"spatialhadoop/within-distance", 0x960c3870a5a91e8bULL,
       [](const Inputs& in) {
         return run_spatial_hadoop(in.points, in.roads, distance_query(), in.exec);
       }},
      {"spatialspark/within-distance", 0x03c0ce2aef496babULL,
       [](const Inputs& in) {
         return run_spatial_spark(in.points, in.roads, distance_query(), in.exec);
       }},
      {"spatialspark/broadcast", 0x79697658a405a39cULL,
       [](const Inputs& in) {
         SpatialSparkConfig c;
         c.broadcast_join = true;
         return run_spatial_spark(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"spatialspark/cost-based", 0x163cfd92dab753c7ULL,
       [](const Inputs& in) {
         SpatialSparkConfig c;
         c.policy.cost_based_plan = true;
         return run_spatial_spark(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"spatialhadoop/pre-indexed", 0x6e38100f7a70f78cULL,
       [](const Inputs& in) {
         const auto ia = spatial_hadoop_build_index(in.points, pip_query(), in.exec);
         const auto ib = spatial_hadoop_build_index(in.polys, pip_query(), in.exec);
         return run_spatial_hadoop_indexed(ia, ib, pip_query(), in.exec);
       }},
      {"hadoopgis/malformed-rows", 0xfeca0a31013128c6ULL,
       [](const Inputs& in) {
         HadoopGisConfig c;
         c.faults.malformed_rows = 3;
         return run_hadoop_gis(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"spatialspark/malformed-rows", 0x12a47fea39d834b8ULL,
       [](const Inputs& in) {
         SpatialSparkConfig c;
         c.spark.faults.malformed_rows = 3;
         return run_spatial_spark(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"hadoopgis/broken-pipe", 0xaff7d91c5f6d2869ULL,
       [](const Inputs& in) {
         HadoopGisConfig c;
         c.pipe_capacity_fraction = 1e-4;
         return run_hadoop_gis(in.points, in.polys, pip_query(), in.exec, c);
       }},
      {"spatialhadoop/task-failed", 0xcf32696d9df4fc05ULL,
       [](const Inputs& in) {
         SpatialHadoopConfig c;
         c.faults.seed = 5;
         c.faults.task_crash_probability = 0.002;
         return run_spatial_hadoop(in.points, in.polys, pip_query(), in.exec, c);
       },
       "join/local/map"},
      {"spatialhadoop/partition-failed", 0xb76435dcc910cd02ULL,
       [](const Inputs& in) {
         SpatialHadoopConfig c;
         c.faults.seed = 3;
         c.faults.task_crash_probability = 0.01;
         c.faults.max_attempts = 1;
         return run_spatial_hadoop(in.points, in.polys, pip_query(), in.exec, c);
       },
       "A/partition/map"},
      {"hadoopgis/resident", 0x1f8eee115f7e52ddULL,
       [](const Inputs& in) {
         return resident_query(in, SystemKind::kHadoopGisSim, pip_query());
       }},
      {"spatialhadoop/resident", 0x7fbc9644f505bf07ULL,
       [](const Inputs& in) {
         return resident_query(in, SystemKind::kSpatialHadoopSim, pip_query());
       }},
      {"spatialspark/resident", 0xe53abbe9dfac70a7ULL,
       [](const Inputs& in) {
         return resident_query(in, SystemKind::kSpatialSparkSim, pip_query());
       }},
  };
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

TEST(ReportGolden, ModeledDigestsMatchRecordedValues) {
  const VirtualTimeGuard virtual_time;
  for (const auto& c : golden_cases()) {
    const RunReport report = c.run(Inputs::instance());
    EXPECT_EQ(hex(modeled_digest(report)), hex(c.digest))
        << c.name << " (" << report.status.to_string() << ")";
    if (c.failing_phase != nullptr) {
      EXPECT_EQ(report.status.code(), StatusCode::kTaskFailed) << c.name;
      const std::string prefix = std::string(c.failing_phase) + ": ";
      EXPECT_TRUE(report.status.message().starts_with(prefix))
          << c.name << " (" << report.status.to_string() << ")";
    }
  }
}

}  // namespace
}  // namespace sjc
