#include "core/join_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <iterator>

#include "workload/quarantine.hpp"
#include "workload/tsv.hpp"

namespace sjc::core {

dfs::DfsConfig dfs_config(const JoinQueryConfig& query, const ExecutionConfig& exec) {
  return dfs::DfsConfig{
      .block_size = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(64.0 * 1024 * 1024 / exec.data_scale)),
      .replication = 3,
      .datanode_count = exec.cluster.node_count,
      .seed = query.seed,
  };
}

std::vector<std::vector<std::string>> chunk_lines(std::vector<std::string> lines,
                                                  std::size_t n) {
  std::vector<std::vector<std::string>> out;
  const std::size_t total = lines.size();
  const std::size_t per = (total + n - 1) / std::max<std::size_t>(n, 1);
  std::size_t i = 0;
  while (i < total) {
    const std::size_t end = std::min(i + per, total);
    out.emplace_back(std::make_move_iterator(lines.begin() + static_cast<std::ptrdiff_t>(i)),
                     std::make_move_iterator(lines.begin() + static_cast<std::ptrdiff_t>(end)));
    i = end;
  }
  if (out.empty()) out.emplace_back();
  return out;
}

std::vector<std::string> input_lines(const workload::Dataset& data,
                                     const std::string& tag,
                                     const cluster::FaultPlan& plan,
                                     cluster::Counters& counters) {
  auto lines = workload::dataset_to_tsv(data, /*include_pad=*/true);
  if (plan.malformed_rows > 0) {
    workload::inject_malformed_rows(lines, plan.malformed_rows,
                                    plan.seed ^ std::hash<std::string>{}(tag));
    counters.add("input.malformed_rows_injected", plan.malformed_rows);
  }
  return lines;
}

LocalJoinScope::LocalJoinScope(const JoinQueryConfig& query,
                               index::LocalJoinAlgorithm paper_algorithm,
                               geom::EngineKind engine,
                               geom::PreparedCache* shared_cache,
                               cluster::Counters* counters)
    : spec_{
          .algorithm = query.local_algorithm.value_or(paper_algorithm),
          .engine = &geom::GeometryEngine::get(engine),
          .predicate = query.predicate,
          .within_distance = query.within_distance,
          // Consulted only under the Prepared engine: the Simple engine's
          // per-call refinement work is the model being measured.
          .prepared_cache = shared_cache != nullptr ? shared_cache : &run_cache_,
          // refine.* accounting; Counters is thread-safe and run_local_join
          // flushes once per call, not per pair.
          .refine_counters = counters,
      },
      hits0_(spec_.prepared_cache->hits()),
      misses0_(spec_.prepared_cache->misses()),
      exceptions0_(std::uncaught_exceptions()) {}

LocalJoinScope::~LocalJoinScope() {
  cluster::Counters* counters = spec_.refine_counters;
  if (counters == nullptr || std::uncaught_exceptions() != exceptions0_) return;
  const geom::PreparedCache& prepared_cache = *spec_.prepared_cache;
  counters->add("join.prepared_cache_hits", prepared_cache.hits() - hits0_);
  counters->add("join.prepared_cache_misses", prepared_cache.misses() - misses0_);
}

void record_result(RunReport& report, std::vector<JoinPair> pairs,
                   const ExecutionConfig& exec) {
  report.success = true;
  report.status = Status::Ok();
  report.result_count = pairs.size();
  report.result_hash = hash_pairs_unordered(pairs);
  if (exec.collect_pairs) report.pairs = std::move(pairs);
}

void record_breakdown(RunReport& report) {
  report.index_a_seconds = report.metrics.seconds_with_prefix("A/");
  report.index_b_seconds = report.metrics.seconds_with_prefix("B/");
  report.join_seconds = report.metrics.seconds_with_prefix("join/");
}

void ResidentBase::begin_query(const JoinQueryConfig& query, const std::string& who,
                               RunReport& report) const {
  require(query.envelope_expansion() == expand,
          who + ": query envelope expansion differs from the resident build "
                "(rebuild the catalog entry)");
  report.counters.merge(ingest_counters);
}

}  // namespace sjc::core
