#include "bench.hpp"
#include "workload/generators.hpp"

namespace perfbench {

BatchData generate_batch_data(BatchKind kind, std::uint64_t seed) {
  const std::size_t pair = kind == BatchKind::kTaxiPip ? 0 : 1;
  sjc::workload::WorkloadConfig wc;
  wc.scale = kBatchScale;
  wc.seed = seed;
  BatchData data;
  data.full = sjc::core::full_experiments()[pair];
  data.sample = sjc::core::sample_experiments()[pair];
  data.full_left = sjc::workload::generate(data.full.left, wc);
  data.full_right = sjc::workload::generate(data.full.right, wc);
  data.sample_left = sjc::workload::generate(data.sample.left, wc);
  data.sample_right = sjc::workload::generate(data.sample.right, wc);
  return data;
}

std::vector<Job> job_grid() {
  const auto clusters = sjc::core::paper_cluster_configs();
  std::vector<Job> jobs;
  for (const bool table2 : {true, false}) {
    for (const auto system : {SystemKind::kHadoopGisSim, SystemKind::kSpatialHadoopSim,
                              SystemKind::kSpatialSparkSim}) {
      // Table 3 runs on WS and EC2-10 only.
      const std::size_t n = table2 ? clusters.size() : 2;
      for (std::size_t c = 0; c < n; ++c) {
        jobs.push_back({table2, system, clusters[c], jobs.size()});
      }
    }
  }
  return jobs;
}

const sjc::core::ExperimentDef& job_experiment(const BatchData& data, const Job& job) {
  return job.table2 ? data.full : data.sample;
}

RunReport run_job(const BatchData& data, const Job& job, bool trace) {
  const auto& def = job_experiment(data, job);
  sjc::core::JoinQueryConfig query;
  query.predicate = def.predicate;
  sjc::core::ExecutionConfig exec;
  exec.cluster = job.cluster;
  exec.data_scale = 1.0 / kBatchScale;
  exec.trace = trace;
  return job.table2
             ? sjc::core::run_spatial_join(job.system, data.full_left, data.full_right,
                                           query, exec)
             : sjc::core::run_spatial_join(job.system, data.sample_left, data.sample_right,
                                           query, exec);
}

const char* system_key(SystemKind system) {
  switch (system) {
    case SystemKind::kHadoopGisSim: return "hadoopgis";
    case SystemKind::kSpatialHadoopSim: return "spatialhadoop";
    case SystemKind::kSpatialSparkSim: return "spatialspark";
  }
  return "unknown";
}

const char* phase_group(const std::string& phase) {
  const auto has = [&phase](const char* word) {
    return phase.find(word) != std::string::npos;
  };
  // Checked in pipeline-reverse order: Spark stage names carry their whole
  // lineage ("A.text.parse.assign.groupByKey.join.local-join").
  if (has("join") || has("aggregate") || has("dedup")) return "join";
  if (has("groupByKey") || has("reduce")) return "shuffle";
  if (has("partition") || has("assign") || has("filter") || has("scheme") ||
      has("normalize") || has("extent")) {
    return "partition";
  }
  return "ingest";  // read, convert, text parse, sample
}

}  // namespace perfbench
