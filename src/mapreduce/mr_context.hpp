// Shared execution context for simulated MapReduce jobs.
//
// MrContext bundles what every job run needs: the cluster it "runs on", the
// data scale that converts measured quantities to paper magnitude, the DFS
// (for read/write cost structure) and the metrics sink. MrConfig carries
// the Hadoop framework constants the paper's analysis repeatedly invokes:
// per-job startup overhead (why many small MR jobs hurt HadoopGIS, and why
// Hadoop "infrastructure overheads for small datasets" show in Table 3) and
// per-task scheduling/JVM overhead.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/cluster_spec.hpp"
#include "cluster/counters.hpp"
#include "cluster/metrics.hpp"
#include "cluster/scheduler.hpp"
#include "cluster/sim_task.hpp"
#include "dfs/sim_dfs.hpp"
#include "trace/trace.hpp"

namespace sjc::mapreduce {

struct MrConfig {
  /// Seconds (paper units) to submit+launch one MR job (JobTracker/YARN
  /// round-trips, container allocation).
  double job_startup_s = 12.0;
  /// Seconds (paper units) per task for scheduling + JVM spin-up.
  double task_overhead_s = 1.5;
  /// Number of reduce tasks; 0 = one per cluster slot.
  std::uint32_t reduce_tasks = 0;
  /// Ratio of this simulator's native C++ throughput to the modeled
  /// system's software stack (JVM geometry libraries, boxing, streaming
  /// glue). Measured CPU seconds are divided by this before scaling.
  double cpu_efficiency = 0.2;
  /// Per-reduce-task fetch setup latency for each map output segment, on
  /// multi-node clusters only (paper units): a reducer opens one connection
  /// per mapper, which is why the paper finds distributed shuffles during
  /// indexing "very expensive" on EC2 while nearly free on the workstation.
  double shuffle_fetch_latency_s = 0.8;
};

struct MrContext {
  const cluster::ClusterSpec* cluster = nullptr;
  double data_scale = 1.0;
  dfs::SimDfs* dfs = nullptr;
  cluster::RunMetrics* metrics = nullptr;
  /// Optional named-counter sink (Hadoop-style job counters).
  cluster::Counters* counters = nullptr;
  /// Optional fault injector: when set, every phase is scheduled through
  /// the failure-aware path (retries, speculation, datanode losses). Null
  /// means the fault-free seed model.
  const cluster::FaultInjector* faults = nullptr;
  /// Index of the next unapplied datanode-loss event from the fault plan
  /// (advanced as the simulated clock passes each event's time).
  std::size_t datanode_losses_applied = 0;
  /// Optional per-task span sink. When set, every scheduled attempt (plus
  /// master steps and DFS repairs) lands on the run's trace timeline;
  /// tracing never changes what the phases charge. Kept last so existing
  /// positional aggregate initializers stay valid.
  trace::TraceCollector* trace = nullptr;
  /// Failed-attempt retries consumed so far across the whole job (attempts
  /// beyond each task's first, excluding speculative clones). Checked
  /// against the plan's job_retry_budget after every successful phase.
  std::uint64_t retries_used = 0;

  /// Fraction of shuffled bytes that cross the network (a reducer co-hosted
  /// with a mapper reads locally): (nodes-1)/nodes.
  double remote_fraction() const {
    return cluster->node_count <= 1
               ? 0.0
               : static_cast<double>(cluster->node_count - 1) /
                     static_cast<double>(cluster->node_count);
  }
};

/// Charges a serial master-node step (e.g. HadoopGIS's local partition
/// generation, SpatialHadoop's getSplits MBR join): one task on one slot,
/// with DFS read/write of the given byte volumes. `cpu_seconds` is raw
/// measured time; it is divided by the master's fixed CPU efficiency (0.2).
void charge_master_step(MrContext& ctx, const std::string& name, double cpu_seconds,
                        std::uint64_t read_bytes, std::uint64_t write_bytes);

/// The context's fault injector, or a shared trivial (fault-free) one when
/// none is set. A trivial plan drives the failure-aware scheduler through
/// arithmetic identical to the plain path, so clean runs stay bit-equal.
const cluster::FaultInjector& fault_injector(const MrContext& ctx);

/// Records a phase from a set of simulated tasks: computes the FIFO
/// makespan over the cluster's slots (through the context's fault injector:
/// retries, backoff, speculation, stragglers) and appends a PhaseReport.
///
/// `task_severity` (optional, parallel to `tasks`) carries deterministic
/// per-task failure causes — for streaming, pipe_volume / pipe_capacity;
/// entries > the attempt's capacity factor make that attempt fail (see
/// scheduler.hpp). The outcome reports whether the phase succeeded; on
/// `success == false` the phase (with its wasted work) is still recorded
/// and the caller decides which SimFailure to throw. Datanode-loss events
/// whose scheduled time the simulated clock has passed are applied after
/// the phase, charging re-replication traffic as its own phase — so the
/// recorded phase may not be the metrics' last; per-phase annotations go
/// through `max_task_pipe_bytes` here rather than metrics->last_phase().
///
/// Lifecycle enforcement (throwing paths; the phase is recorded first so a
/// killed job's metrics show where the clock stopped): a successful phase
/// whose makespan overruns the plan's phase_timeout_s charges exactly the
/// timeout and throws DeadlineExceeded; retries beyond the plan's
/// job_retry_budget (accumulated in ctx.retries_used) throw
/// RetryBudgetExhausted.
cluster::ScheduleOutcome record_phase(MrContext& ctx, const std::string& name,
                                      const std::vector<cluster::SimTask>& tasks,
                                      std::uint64_t bytes_read,
                                      std::uint64_t bytes_written,
                                      std::uint64_t bytes_shuffled,
                                      double extra_seconds,
                                      const std::vector<double>* task_severity =
                                          nullptr,
                                      std::uint64_t max_task_pipe_bytes = 0);

}  // namespace sjc::mapreduce
