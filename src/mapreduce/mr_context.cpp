#include "mapreduce/mr_context.hpp"

#include "cluster/scheduler.hpp"
#include "util/status.hpp"

namespace sjc::mapreduce {

const cluster::FaultInjector& fault_injector(const MrContext& ctx) {
  static const cluster::FaultInjector trivial{cluster::FaultPlan{}};
  return ctx.faults != nullptr ? *ctx.faults : trivial;
}

namespace {

/// Fraction of a slot's throughput a serial master-node step achieves:
/// measured master CPU is divided by this, whatever the system's MrConfig
/// says about its task slots.
constexpr double kMasterCpuEfficiency = 0.2;

/// Emits one slot-0 span for a serial single-task phase (master steps, DFS
/// repairs). `start` is the run clock before the phase was appended.
void emit_serial_span(MrContext& ctx, const cluster::PhaseReport& phase,
                      double start, double cpu_seconds) {
  if (ctx.trace == nullptr) return;
  trace::TaskSpan span;
  span.phase = phase.name;
  span.task = 0;
  span.attempt = 1;
  span.slot = 0;
  span.sim_start = start;
  span.sim_end = start + phase.sim_seconds;
  span.cpu_seconds = cpu_seconds;
  span.bytes_in = phase.bytes_read;
  span.bytes_out = phase.bytes_written;
  span.bytes_shuffled = phase.bytes_shuffled;
  ctx.trace->record(std::move(span));
}

/// Applies datanode-loss events the simulated clock has passed: kills the
/// node in the DFS and charges the namenode's re-replication copies as a
/// one-task repair phase.
void apply_due_datanode_losses(MrContext& ctx) {
  if (ctx.faults == nullptr || ctx.dfs == nullptr) return;
  const auto due = ctx.faults->losses_due(ctx.metrics->total_seconds(),
                                          ctx.datanode_losses_applied);
  for (const auto& event : due) {
    ++ctx.datanode_losses_applied;
    // The last live datanode never dies mid-run (it hosts the master too).
    if (ctx.dfs->live_datanode_count() <= 1) continue;
    const dfs::ReplicationRepair repair =
        ctx.dfs->fail_datanode(event.node % ctx.dfs->config().datanode_count);
    if (repair.bytes_rereplicated == 0 && repair.blocks_lost == 0) continue;
    cluster::SimTask task;
    task.disk_read = repair.cost.disk_read;
    task.disk_write = repair.cost.disk_write;
    task.network = repair.cost.network;
    cluster::PhaseReport phase;
    phase.name = "dfs/re-replicate[node" + std::to_string(event.node) + "]";
    phase.sim_seconds = task.duration(*ctx.cluster, ctx.data_scale);
    phase.bytes_read = repair.cost.disk_read;
    phase.bytes_written = repair.cost.disk_write;
    phase.task_count = 1;
    phase.task_attempts = 1;
    phase.commits_published = 1;
    phase.rereplicated_bytes = repair.bytes_rereplicated;
    emit_serial_span(ctx, phase, ctx.metrics->total_seconds(), 0.0);
    ctx.metrics->add_phase(std::move(phase));
  }
}

}  // namespace

void charge_master_step(MrContext& ctx, const std::string& name, double cpu_seconds,
                        std::uint64_t read_bytes, std::uint64_t write_bytes) {
  require(ctx.cluster != nullptr && ctx.metrics != nullptr,
          "charge_master_step: incomplete context");
  cluster::SimTask task;
  task.cpu_seconds = cpu_seconds / kMasterCpuEfficiency;
  if (ctx.dfs != nullptr) {
    const auto rc = ctx.dfs->read_cost(read_bytes);
    const auto wc = ctx.dfs->write_cost(write_bytes);
    task.disk_read = rc.disk_read;
    task.disk_write = wc.disk_write;
    task.network = rc.network + wc.network;
  } else {
    task.disk_read = read_bytes;
    task.disk_write = write_bytes;
  }
  cluster::PhaseReport phase;
  phase.name = name;
  phase.sim_seconds = task.duration(*ctx.cluster, ctx.data_scale);
  phase.bytes_read = read_bytes;
  phase.bytes_written = write_bytes;
  phase.task_count = 1;
  phase.task_attempts = 1;
  phase.commits_published = 1;
  emit_serial_span(ctx, phase, ctx.metrics->total_seconds(), task.cpu_seconds);
  ctx.metrics->add_phase(std::move(phase));
  apply_due_datanode_losses(ctx);
}

cluster::ScheduleOutcome record_phase(MrContext& ctx, const std::string& name,
                                      const std::vector<cluster::SimTask>& tasks,
                                      std::uint64_t bytes_read,
                                      std::uint64_t bytes_written,
                                      std::uint64_t bytes_shuffled,
                                      double extra_seconds,
                                      const std::vector<double>* task_severity,
                                      std::uint64_t max_task_pipe_bytes) {
  std::vector<double> durations;
  durations.reserve(tasks.size());
  for (const auto& t : tasks) {
    durations.push_back(t.duration(*ctx.cluster, ctx.data_scale));
  }
  const cluster::FaultInjector& faults = fault_injector(ctx);
  const cluster::FaultPlan& plan = faults.plan();
  std::vector<cluster::ScheduledAttempt> attempts;
  const cluster::ScheduleOutcome outcome = cluster::list_schedule_makespan(
      durations, ctx.cluster->total_slots(), faults,
      cluster::FaultInjector::phase_id(name), task_severity,
      ctx.trace != nullptr ? &attempts : nullptr, ctx.cluster->node.cores);
  // A successful phase that overran its deadline is killed by the job
  // tracker at exactly the timeout: charge the timeout, not the makespan.
  const bool timed_out = plan.phase_timeout_s > 0.0 && outcome.success &&
                         outcome.makespan + extra_seconds > plan.phase_timeout_s;
  // Shift phase-relative attempt times onto the run clock: the phase starts
  // where the sequential clock stood, and its serial extra_seconds (job
  // startup) precede the task waves.
  if (ctx.trace != nullptr) {
    const double offset = ctx.metrics->total_seconds() + extra_seconds;
    for (const auto& a : attempts) {
      trace::TaskSpan span;
      span.phase = name;
      span.task = a.task;
      span.attempt = a.attempt;
      span.speculative = a.speculative;
      span.slot = a.slot;
      span.sim_start = offset + a.start;
      span.sim_end = offset + a.end;
      span.cpu_seconds = tasks[a.task].cpu_seconds;
      span.bytes_in = tasks[a.task].disk_read;
      span.bytes_out = tasks[a.task].disk_write;
      span.bytes_shuffled = tasks[a.task].network;
      span.outcome = a.outcome;
      ctx.trace->record(std::move(span));
    }
    // Zero-duration markers at the moment each node was blacklisted.
    for (const auto& q : outcome.quarantines) {
      trace::TaskSpan span;
      span.phase = name;
      span.task = q.node;
      span.attempt = q.failures;
      span.slot = q.node * ctx.cluster->node.cores;
      span.sim_start = offset + q.time_s;
      span.sim_end = offset + q.time_s;
      span.outcome = trace::SpanOutcome::kQuarantined;
      ctx.trace->record(std::move(span));
    }
  }
  cluster::PhaseReport phase;
  phase.name = name;
  phase.sim_seconds =
      timed_out ? plan.phase_timeout_s : outcome.makespan + extra_seconds;
  phase.bytes_read = bytes_read;
  phase.bytes_written = bytes_written;
  phase.bytes_shuffled = bytes_shuffled;
  phase.task_count = tasks.size();
  phase.max_task_pipe_bytes = max_task_pipe_bytes;
  phase.task_attempts = outcome.attempts;
  phase.speculative_clones = outcome.speculative_clones;
  phase.wasted_seconds = outcome.wasted_seconds;
  phase.commits_published = outcome.commits_published;
  phase.commits_rejected = outcome.commits_rejected;
  phase.attempts_aborted = outcome.attempts_aborted;
  phase.nodes_quarantined = outcome.quarantines.size();
  ctx.metrics->add_phase(std::move(phase));
  if (ctx.counters != nullptr) {
    if (outcome.commits_published > 0) {
      ctx.counters->add("commit.published", outcome.commits_published);
    }
    if (outcome.commits_rejected > 0) {
      ctx.counters->add("commit.rejected", outcome.commits_rejected);
    }
    if (outcome.attempts_aborted > 0) {
      ctx.counters->add("commit.aborted", outcome.attempts_aborted);
    }
    if (!outcome.quarantines.empty()) {
      ctx.counters->add("quarantine.nodes", outcome.quarantines.size());
    }
  }
  apply_due_datanode_losses(ctx);
  // Lifecycle enforcement, after the phase (and any DFS repairs) are on the
  // books so a killed job's metrics show where its clock stopped. A failed
  // phase is exempt — the caller throws its own, more specific failure.
  if (outcome.success) {
    if (timed_out) {
      if (ctx.counters != nullptr) ctx.counters->add("budget.phase_timeouts", 1);
      throw DeadlineExceeded("phase '" + name + "' overran its deadline: makespan " +
                             std::to_string(outcome.makespan + extra_seconds) +
                             "s > timeout " + std::to_string(plan.phase_timeout_s) +
                             "s");
    }
    const std::uint64_t retries =
        outcome.attempts - tasks.size() - outcome.speculative_clones;
    if (retries > 0) {
      ctx.retries_used += retries;
      if (ctx.counters != nullptr) ctx.counters->add("budget.retries_used", retries);
    }
    if (plan.job_retry_budget > 0 && ctx.retries_used > plan.job_retry_budget) {
      throw RetryBudgetExhausted(
          "job retry budget exhausted: " + std::to_string(ctx.retries_used) +
          " retries used, budget " + std::to_string(plan.job_retry_budget) +
          " (last phase '" + name + "')");
    }
  }
  return outcome;
}

}  // namespace sjc::mapreduce
