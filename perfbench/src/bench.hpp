// The repository benchmark: three workloads driven through the library's
// public calls, every answer checked against an independent oracle and a
// stored expected-outcome table, metrics printed as one JSON line.
//
// Layout:
//   stats.cpp   percentile rule, due-time latency arithmetic, process clocks
//   checks.cpp  expected-outcome table, job judging, modeled digest
//   oracle.cpp  brute-force nested-loop join over the *_naive predicates
//   batch.cpp   taxi-pip / edge-intersects: the 18-job grid per pass
//   serve.cpp   serve-mixed: open-loop Poisson traffic over a ResidentCatalog
//   replay.cpp  traced layer-by-layer replay of one batch input
//   spans.cpp   in-memory span log written out when the run ends
//   main.cpp    argument parsing, metric assembly, the JSON result line
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "serving/query_service.hpp"
#include "util/status.hpp"
#include "workload/dataset.hpp"

namespace perfbench {

using sjc::core::JoinPredicate;
using sjc::core::RunReport;
using sjc::core::SystemKind;
using sjc::workload::Dataset;

/// The library's default workload seed: the stored modeled digests were
/// recorded at it, and serve-mixed's resident datasets are generated from
/// it (bench_serving's set-up; there the seed drives the query stream).
inline constexpr std::uint64_t kDefaultSeed = 2015;

// ---------------------------------------------------------------------------
// stats.cpp
// ---------------------------------------------------------------------------

/// Nearest-rank quantile: the sample at rank ceil(q * n) of the sorted
/// values (q in (0, 1]). Returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The percentile rule: a tail percentile is reported only when at least
/// this many samples lie beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;
bool percentile_supported(std::size_t n, double q);

/// Open-loop latency of one request, timed from when it was due: the
/// generator's lateness (sent - due) plus what the service measured from
/// admission to completion.
double due_latency_seconds(double due_s, double sent_s, double after_send_s);

struct ProcessTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double cpu_s() const { return user_s + sys_s; }
};
ProcessTimes process_times();
double peak_rss_mb();

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// checks.cpp
// ---------------------------------------------------------------------------

struct OracleAnswer {
  std::size_t count = 0;
  std::uint64_t hash = 0;
};

/// What a job must produce: its status, and for a successful job the
/// oracle's pair set (as count + order-independent hash).
struct Expectation {
  sjc::StatusCode status = sjc::StatusCode::kOk;
  OracleAnswer answer;
};

/// Empty when `report` matches `want`, else a one-line reason.
std::string judge(const Expectation& want, const RunReport& report);

/// Wrong outcomes over attempted jobs or queries.
struct ErrorTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;  // first few, for the log
  void record(const std::string& reason);  // empty reason = right outcome
  double rate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// One row of the stored expected-outcome table.
struct OutcomeRow {
  std::string experiment;
  std::string system;
  std::string cluster;
  sjc::StatusCode status = sjc::StatusCode::kOk;
  std::uint64_t digest = 0;  // modeled digest at kDigestSeed
};

/// Parses the expected-outcome table (tab-separated: experiment, system,
/// cluster, status name, digest in hex). Throws on a malformed file.
std::vector<OutcomeRow> load_outcome_table(const std::string& path);
const OutcomeRow* find_outcome(const std::vector<OutcomeRow>& table,
                               const std::string& experiment, SystemKind system,
                               const std::string& cluster);
sjc::StatusCode parse_status_code(const std::string& name);

/// Digest of a report's modeled quantities: status, result count and hash,
/// the Table 3 breakdown, peak memory, every phase's sim seconds, bytes,
/// task and attempt counts, and every counter except the
/// scheduling-dependent join.prepared_cache_hits/misses. Meaningful only
/// for reports produced under sjc::VirtualTimeGuard.
std::uint64_t modeled_digest(const RunReport& report);

// ---------------------------------------------------------------------------
// oracle.cpp
// ---------------------------------------------------------------------------

/// Brute-force join: every (left, right) pair whose envelopes intersect is
/// tested with geom::contains_naive (kWithin: right covers left) or
/// geom::intersects_naive. No index, partitioning or prepared geometry.
/// Runs in parallel across left records.
OracleAnswer oracle_join(const Dataset& left, const Dataset& right,
                         JoinPredicate predicate, unsigned threads = 4);

// ---------------------------------------------------------------------------
// spans.cpp
// ---------------------------------------------------------------------------

/// In-memory span log. A span has a name, a start and end on the run's
/// real-time clock, a parent span, and the id of the job or query it
/// belongs to (shared by that job's or query's whole subtree).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };
  SpanLog();
  double now() const { return seconds_since(epoch_); }
  int open(std::string name, std::uint64_t id, int parent);
  void close(int span);
  int add(std::string name, std::uint64_t id, int parent, double start_s, double end_s);
  double duration(int span) const { return spans_[span].end_s - spans_[span].start_s; }
  /// Writes every span, as {"spans": [...]}; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// batch.cpp
// ---------------------------------------------------------------------------

enum class BatchKind { kTaxiPip, kEdgeIntersects };

/// One workload's inputs: the Table 2 pair, the Table 3 pair, and the
/// oracle's answer for each.
struct BatchData {
  sjc::core::ExperimentDef full;
  sjc::core::ExperimentDef sample;
  Dataset full_left, full_right, sample_left, sample_right;
  OracleAnswer full_answer, sample_answer;
};

inline constexpr double kBatchScale = 1e-3;

/// Generates the four datasets (no oracle).
BatchData generate_batch_data(BatchKind kind, std::uint64_t seed);

struct Job {
  bool table2 = true;  // false: the Table 3 pair
  SystemKind system = SystemKind::kHadoopGisSim;
  sjc::cluster::ClusterSpec cluster;
  std::uint64_t id = 0;  // position in the grid
};

/// The 18-job grid, in run order: Table 2 (3 systems x WS, EC2-10,
/// EC2-8, EC2-6), then Table 3 (3 systems x WS, EC2-10).
std::vector<Job> job_grid();
const sjc::core::ExperimentDef& job_experiment(const BatchData& data, const Job& job);
RunReport run_job(const BatchData& data, const Job& job, bool trace);

/// Metric-name key of a system: hadoopgis, spatialhadoop or spatialspark.
const char* system_key(SystemKind system);

/// Phase group a system phase name belongs to: ingest, partition, shuffle
/// or join.
const char* phase_group(const std::string& phase);

// ---------------------------------------------------------------------------
// serve.cpp
// ---------------------------------------------------------------------------

inline constexpr double kServeScale = 2e-4;

/// The fixed serving load. The rate is just under half the lowest capacity
/// measured with 2 workers when this benchmark was written (perfbench --calibrate:
/// 936-1191 q/s on a 4-vCPU host, by how busy the host was), so the
/// service keeps up in slow host phases too. It is never recalibrated at
/// run time.
struct ServeLoad {
  double rate_qps = 400.0;
  std::size_t workers = 2;
  std::size_t tenants = 4;
  double join_share = 0.05;
  double knn_share = 0.15;
  std::size_t block = 500;  // queries per closed-loop pass (block)
};

struct ServeResult {
  std::vector<double> join_ms, lookup_ms, all_ms;  // due-time latencies
  double achieved_qps = 0.0;
  std::vector<double> queue_ms, join_service_ms, lookup_service_ms, gen_late_ms;
  std::uint64_t rejected = 0;
  double sys_share = 0.0;
  double mean_service_ms = 0.0;
  std::uint64_t cache_hits = 0, cache_lookups = 0;
  std::map<std::string, double> task_cpu;  // "<system>.<group>" -> seconds
  std::uint64_t task_attempts = 0;
  ErrorTally errors;
};

/// Closed-loop passes: per block, the wall and process CPU seconds from
/// submitting its queries to its last answer.
struct DrainResult {
  std::vector<double> wall_s, cpu_s;
  ErrorTally errors;
};

class ServeBench {
 public:
  /// Generates the inputs at kDefaultSeed and installs one resident entry
  /// per system (the workload's set-up). `trace` installs entries whose
  /// joins return task traces.
  explicit ServeBench(bool trace);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;
  /// Runs the oracle on the resident inputs (untimed); returns its answer.
  OracleAnswer compute_oracle();
  /// Takes the answer an identical bench's compute_oracle() gave.
  void set_oracle(const OracleAnswer& answer);
  /// Open-loop run for `seconds`, every answer checked afterwards. With a
  /// span log, records one span per query (due time to completion, with
  /// queue and service children) under `parent`, and the service records
  /// its own per-query trace.
  ServeResult run(const ServeLoad& load, std::uint64_t seed, double seconds,
                  SpanLog* log, int parent);
  /// Closed loop for `seconds` (at least one block): blocks of `load.block`
  /// queries from the seed's schedule, each submitted at once to a service
  /// with the load's workers and timed until its last answer, so the
  /// workers stay saturated and queueing, dispatch and lock waits show in
  /// the wall time. Every answer is checked after its block's timing.
  DrainResult drain_blocks(const ServeLoad& load, std::uint64_t seed, double seconds);
  /// Resident joins per system, closed loop through a one-worker service:
  /// `rounds` joins per system, interleaved, each answer checked. Appends
  /// each join's process user CPU seconds to `user_s[system]`.
  void probe_joins(std::size_t rounds, std::vector<std::vector<double>>& user_s,
                   ErrorTally& errors);
  const Dataset& left() const;
  const Dataset& right() const;
  /// Seconds the constructor spent generating the inputs.
  double generate_seconds() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// ---------------------------------------------------------------------------
// replay.cpp
// ---------------------------------------------------------------------------

/// Replays the join pipeline's layers in order on `left` x `right` through
/// their public calls, each timed as a span under `parent`. Returns the
/// per-layer metric values by name; `joined_pairs` receives the replayed
/// local join's deduplicated answer, which must equal the oracle's.
std::map<std::string, double> replay_layers(const Dataset& left, const Dataset& right,
                                            JoinPredicate predicate, std::uint64_t seed,
                                            SpanLog& log, int parent, OracleAnswer& joined_pairs);

}  // namespace perfbench
