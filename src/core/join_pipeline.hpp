// The cross-system decisions of the Fig. 1 pipeline, each made once.
//
// The three system drivers run the same preprocess -> global join -> local
// join pipeline on different substrates (Streaming text, native MR, RDD
// stages). What two or more of them decide identically lives here; a driver
// keeps only how a stage executes and what it is charged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/counters.hpp"
#include "cluster/fault_injector.hpp"
#include "core/local_join.hpp"
#include "core/spatial_join.hpp"
#include "dfs/sim_dfs.hpp"
#include "geom/occupancy.hpp"
#include "geom/prepared_cache.hpp"
#include "partition/partitioner.hpp"
#include "trace/trace.hpp"
#include "util/status.hpp"
#include "workload/dataset.hpp"

namespace sjc::core {

/// The simulated HDFS every system reads from: 64 MB blocks at paper
/// magnitude, 3 replicas, one datanode per cluster node.
dfs::DfsConfig dfs_config(const JoinQueryConfig& query, const ExecutionConfig& exec);

/// Splits `lines` into `n` contiguous chunks; always at least one.
std::vector<std::vector<std::string>> chunk_lines(std::vector<std::string> lines,
                                                  std::size_t n);

/// One input as the TSV lines that land in HDFS, plus the fault plan's junk
/// rows (extra lines at seeded positions, never corrupted real ones, so a
/// run that quarantines them all joins bit-identically to the fault-free
/// run), counted as `input.malformed_rows_injected`.
std::vector<std::string> input_lines(const workload::Dataset& data,
                                     const std::string& tag,
                                     const cluster::FaultPlan& plan,
                                     cluster::Counters& counters);

/// The local-join spec of one query and the PreparedCache its refiners come
/// from: the caller's shared (resident) cache, else a run-scoped one. On a
/// normal exit the scope records this run's `join.prepared_cache_*` delta
/// (a shared cache carries earlier queries' history); on unwinding, nothing.
class LocalJoinScope {
 public:
  /// `paper_algorithm` applies unless the query overrides it; `counters`
  /// receives refine.* and the cache delta.
  LocalJoinScope(const JoinQueryConfig& query, index::LocalJoinAlgorithm paper_algorithm,
                 geom::EngineKind engine, geom::PreparedCache* shared_cache,
                 cluster::Counters* counters);
  ~LocalJoinScope();
  LocalJoinScope(const LocalJoinScope&) = delete;
  LocalJoinScope& operator=(const LocalJoinScope&) = delete;

  const LocalJoinSpec& spec() const { return spec_; }

 private:
  geom::PreparedCache run_cache_;
  LocalJoinSpec spec_;
  std::uint64_t hits0_;
  std::uint64_t misses0_;
  int exceptions0_;
};

/// The map-side shuffle filter of a joint scheme. Symmetric: a pair needs
/// both records in one cell with intersecting expanded envelopes, so a left
/// copy is dropped against the right marks and vice versa.
struct SymmetricFilter {
  geom::OccupancyFilter left_marks;   // filters the right side
  geom::OccupancyFilter right_marks;  // filters the left side

  std::uint64_t size_bytes() const {
    return left_marks.size_bytes() + right_marks.size_bytes();
  }
};

/// Marks every expanded envelope of each side (any range of geom::Envelope)
/// into the cells the unfiltered shuffle assigns it to. Marks are ORed, so
/// record order does not matter.
template <class LeftEnvelopes, class RightEnvelopes>
SymmetricFilter build_symmetric_filter(const partition::PartitionScheme& scheme,
                                       double expand, const LeftEnvelopes& left,
                                       const RightEnvelopes& right) {
  SymmetricFilter out{geom::OccupancyFilter(scheme.cells()),
                      geom::OccupancyFilter(scheme.cells())};
  std::vector<std::uint32_t> pids;
  const auto mark = [&](const auto& envelopes, geom::OccupancyFilter& filter) {
    for (const geom::Envelope& record_env : envelopes) {
      const geom::Envelope env = record_env.expanded_by(expand);
      scheme.assign_into(env, pids);
      for (const auto pid : pids) filter.mark(pid, env);
    }
  };
  mark(right, out.right_marks);
  mark(left, out.left_marks);
  return out;
}

/// Reference-point duplicate avoidance: true when `cell` is the canonical
/// (lowest-id) cell of `scheme` containing a candidate pair's reference
/// point `p`, so each surviving pair is emitted exactly once.
inline bool owns_reference_point(const partition::PartitionScheme& scheme,
                                 std::uint32_t cell, const geom::Coord& p) {
  return scheme.min_assigned(geom::Envelope::of_point(p.x, p.y)) == cell;
}

/// Fills a successful report's status, count, hash and collected pairs.
void record_result(RunReport& report, std::vector<JoinPair> pairs,
                   const ExecutionConfig& exec);

/// The paper's Table 3 breakdown: IA, IB and DJ sum the "A/", "B/" and
/// "join/" phases (so a run from resident or pre-indexed inputs has IA =
/// IB = 0).
void record_breakdown(RunReport& report);

/// Every entry point's report epilogue: runs `body(report, trace)` (trace
/// null unless exec.trace), maps an escaping SjcError to a structured
/// Status, lets `finish(report)` add the system's own fields, then sets
/// total_seconds, merges the trace and annotates recovery.
template <class Body, class Finish>
RunReport run_reported(const ExecutionConfig& exec, Body&& body, Finish&& finish) {
  RunReport report;
  trace::TraceCollector collector(exec.cluster.node_count, exec.cluster.node.cores);
  try {
    body(report, exec.trace ? &collector : nullptr);
  } catch (const SjcError& e) {
    report.success = false;
    report.failure_reason = e.what();
    report.status = status_from_exception(e);
  }
  finish(report);
  report.total_seconds = report.metrics.total_seconds();
  if (exec.trace) report.trace = collector.merged();
  annotate_recovery(report);
  return report;
}

/// What every system's resident (serving-mode) state shares: the cold build
/// run's report, the counters of the stages a resident query skips (replayed
/// so its full counter set matches a cold run), and the build's envelope
/// expansion. Each system's resident Impl derives from it.
struct ResidentBase {
  RunReport build_report;
  cluster::Counters ingest_counters;
  double expand = 0.0;

  /// Runs the cold build (`run()` returns its report, capturing into this
  /// state); throws SjcError unless it succeeded.
  template <class Run>
  void build(const JoinQueryConfig& query, const std::string& who, Run&& run) {
    expand = query.envelope_expansion();
    build_report = run();
    require(build_report.success, who + ": build run failed: " + build_report.failure_reason);
  }

  /// Starts a resident query: throws InvalidArgument unless the query's
  /// envelope expansion is the build's, then replays the ingest counters.
  void begin_query(const JoinQueryConfig& query, const std::string& who,
                   RunReport& report) const;
};

/// The state behind a resident handle; throws InvalidArgument if unbuilt.
template <class Impl>
const Impl& require_built(const std::shared_ptr<const Impl>& impl, const std::string& who) {
  require(impl != nullptr, who + ": resident state must be built first");
  return *impl;
}

}  // namespace sjc::core
