#include "systems/spatialspark/spatial_spark.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <ranges>

#include "core/feature_view.hpp"
#include "core/join_pipeline.hpp"
#include "index/str_tree.hpp"
#include "partition/partitioner.hpp"
#include "plan/partition_refiner.hpp"
#include "rdd/rdd.hpp"
#include "util/stopwatch.hpp"
#include "workload/quarantine.hpp"
#include "workload/tsv.hpp"

namespace sjc::systems {

namespace {

using core::FeatureRef;
using core::JoinPair;
using geom::Feature;

/// The local join SpatialSpark runs: STR-indexed nested loop (natural under
/// Scala, per the paper), unless the query overrides it.
constexpr auto kPaperAlgorithm = index::LocalJoinAlgorithm::kIndexedNestedLoop;

/// Modeled bytes of one record as an executor holds it: the serialized
/// geometry plus the per-record JVM object overhead.
std::uint64_t record_bytes(const FeatureRef& r, std::uint64_t rec_overhead) {
  return static_cast<std::uint64_t>(r.get().geometry.size_bytes()) + rec_overhead;
}

/// Modeled bytes of a group of records.
std::uint64_t group_bytes(const std::vector<FeatureRef>& group, std::uint64_t rec_overhead) {
  std::uint64_t bytes = 0;
  for (const auto& r : group) bytes += record_bytes(r, rec_overhead);
  return bytes;
}

rdd::Sizer<FeatureRef> make_ref_sizer(std::uint64_t rec_overhead) {
  return [rec_overhead](const FeatureRef& r) { return record_bytes(r, rec_overhead); };
}

rdd::Sizer<JoinPair> make_pair_sizer(std::uint64_t rec_overhead) {
  return [rec_overhead](const JoinPair&) { return 16 + rec_overhead; };
}

/// The envelopes of a run of feature refs, as a lazy range.
template <class Refs>
auto ref_envelopes(const Refs& refs) {
  return refs | std::views::transform([](const FeatureRef& r) -> const geom::Envelope& {
           return r.get().geometry.envelope();
         });
}

/// The envelopes of every record of an RDD, partition after partition.
auto rdd_envelopes(const rdd::Rdd<FeatureRef>& rdd) {
  return ref_envelopes(rdd.partitions() | std::views::join);
}

/// Counts and digests the result RDD distributively (SpatialSpark writes its
/// result RDD out / counts it; it never funnels every pair through the
/// driver). Only when the caller wants the pairs do we pay a real collect.
void finish_pairs(rdd::SparkRuntime& rt, const core::ExecutionConfig& exec,
                  const rdd::Rdd<JoinPair>& pairs_rdd, const std::string& stage,
                  core::RunReport& report) {
  if (exec.collect_pairs) {
    core::record_result(report, pairs_rdd.collect(), exec);
    return;
  }
  report.success = true;
  report.status = Status::Ok();
  CpuStopwatch agg_cpu;
  for (const auto& part : pairs_rdd.partitions()) {
    report.result_count += part.size();
    report.result_hash += core::hash_pairs_unordered(part);
  }
  rt.record_narrow_stage(stage + ".aggregate", {agg_cpu.seconds()});
  rt.record_collect("result.aggregate", 16 * pairs_rdd.num_partitions());
}

/// Stages 3-5 of the partitioned join (assign -> groupByKey x2 ->
/// join -> local-join), shared verbatim by the cold batch path and the
/// resident serving path: given the same inputs (feature refs, scheme,
/// bitmaps) both produce bit-identical pair sets and identical shuffle.* /
/// partition.* / refine.* counters — the resident-parity tests depend on
/// this being one function, not two copies. The occupancy bitmaps, when the
/// shuffle filter is on, are broadcast first, next to the scheme.
/// `shared_cache`, when non-null, is a cross-query geom::PreparedCache owned
/// by the caller (the serving catalog).
void run_spark_join_tail(
    rdd::SparkRuntime& rt, const core::JoinQueryConfig& query,
    const core::ExecutionConfig& exec, const SpatialSparkConfig& config,
    rdd::Rdd<FeatureRef> left_rdd, rdd::Rdd<FeatureRef> right_rdd,
    std::size_t left_count, std::size_t right_count,
    const rdd::Broadcast<partition::PartitionScheme>& scheme_bc,
    std::optional<core::SymmetricFilter> filters, geom::PreparedCache* shared_cache,
    std::uint32_t parallelism, core::RunReport& report) {
  const std::uint64_t rec_overhead = config.record_overhead_bytes;
  const rdd::Sizer<std::pair<std::uint32_t, FeatureRef>> pid_ref_sizer =
      [rec_overhead](const std::pair<std::uint32_t, FeatureRef>& kv) {
        return 4 + record_bytes(kv.second, rec_overhead);
      };
  const rdd::Sizer<std::pair<std::uint32_t, std::vector<FeatureRef>>> grouped_sizer =
      [rec_overhead](const std::pair<std::uint32_t, std::vector<FeatureRef>>& kv) {
        return 4 + rec_overhead + group_bytes(kv.second, rec_overhead);
      };
  const double expand = query.envelope_expansion();

  // Each side's assign stage drops against the *other* side's bitmap.
  const bool filter_on = filters.has_value();
  std::optional<rdd::Broadcast<geom::OccupancyFilter>> right_marks_bc;  // filters A
  std::optional<rdd::Broadcast<geom::OccupancyFilter>> left_marks_bc;   // filters B
  if (filter_on) {
    const std::uint64_t right_bytes = filters->right_marks.size_bytes();
    const std::uint64_t left_bytes = filters->left_marks.size_bytes();
    right_marks_bc.emplace(rt, std::move(filters->right_marks), right_bytes, "sfilter.B");
    left_marks_bc.emplace(rt, std::move(filters->left_marks), left_bytes, "sfilter.A");
  }
  const geom::OccupancyFilter* left_filt = filter_on ? &right_marks_bc->value() : nullptr;
  const geom::OccupancyFilter* right_filt = filter_on ? &left_marks_bc->value() : nullptr;

  // ---- 3. Assign partition ids to both sides -------------------------------
  // Shared accumulators for the filtered path, per side: the pre-filter
  // assignment count, the modeled bytes the dropped copies would have
  // shuffled, and the explicit per-record duplicate count (`assigned -
  // size()` would underflow once whole records are filtered away).
  struct FilterStats {
    std::atomic<std::uint64_t> pre_assigned{0};
    std::atomic<std::uint64_t> filtered_bytes{0};
    std::atomic<std::uint64_t> dups{0};
  };
  auto left_stats = std::make_shared<FilterStats>();
  auto right_stats = std::make_shared<FilterStats>();
  const auto make_assign_fn = [&scheme_bc, expand, rec_overhead](
                                  const geom::OccupancyFilter* filt,
                                  std::shared_ptr<FilterStats> stats) {
    return [&scheme_bc, expand, rec_overhead, filt, stats = std::move(stats)](
               const FeatureRef& f,
               std::vector<std::pair<std::uint32_t, FeatureRef>>& out) {
      // assign_into reuses a per-thread scratch and queries the grid cell
      // directory. The scratch is cleared and refilled on every call, so
      // nothing leaks across queries even though the pool thread outlives
      // this one.
      static thread_local std::vector<std::uint32_t> pids_scratch;
      const geom::Envelope env = f.get().geometry.envelope().expanded_by(expand);
      if (filt == nullptr) {
        scheme_bc.value().assign_into(env, pids_scratch);
      } else {
        const std::uint32_t dropped =
            scheme_bc.value().assign_into(env, *filt, pids_scratch);
        stats->pre_assigned.fetch_add(pids_scratch.size() + dropped,
                                      std::memory_order_relaxed);
        if (!pids_scratch.empty()) {
          stats->dups.fetch_add(pids_scratch.size() - 1,
                                std::memory_order_relaxed);
        }
        if (dropped > 0) {
          stats->filtered_bytes.fetch_add(dropped * (4 + record_bytes(f, rec_overhead)),
                                          std::memory_order_relaxed);
        }
      }
      for (const auto pid : pids_scratch) out.emplace_back(pid, f);
    };
  };
  auto left_pids = left_rdd.flat_map<std::pair<std::uint32_t, FeatureRef>>(
      "assign", make_assign_fn(left_filt, left_stats), pid_ref_sizer);
  auto right_pids = right_rdd.flat_map<std::pair<std::uint32_t, FeatureRef>>(
      "assign", make_assign_fn(right_filt, right_stats), pid_ref_sizer);
  const auto count_records = [](const auto& rdd) {
    std::size_t n = 0;
    for (const auto& part : rdd.partitions()) n += part.size();
    return n;
  };
  const std::size_t left_assigned = count_records(left_pids);
  const std::size_t right_assigned = count_records(right_pids);
  report.counters.add("assign.left_assignments", left_assigned);
  report.counters.add("assign.right_assignments", right_assigned);
  if (!filter_on) {
    report.counters.add("partition.duplicated_records",
                        left_assigned - left_count + right_assigned - right_count);
  } else {
    const std::uint64_t pre =
        left_stats->pre_assigned.load() + right_stats->pre_assigned.load();
    report.counters.add("partition.duplicated_records",
                        left_stats->dups.load() + right_stats->dups.load());
    // Both assign stages feed groupByKey, so the whole-run invariant
    // assigned == shuffled + filtered is also the per-phase one.
    report.counters.add("shuffle.assigned_records", pre);
    report.counters.add("shuffle.records", left_assigned + right_assigned);
    report.counters.add("shuffle.filtered_records",
                        pre - left_assigned - right_assigned);
    report.counters.add("shuffle.filtered_bytes",
                        left_stats->filtered_bytes.load() +
                            right_stats->filtered_bytes.load());
  }
  // The input lineage is not retained once consumed (a resident query drops
  // only its per-query handles; the catalog keeps the backing features).
  left_rdd = {};
  right_rdd = {};

  // ---- 4. groupByKey both sides, join on partition id ----------------------
  auto left_grouped = rdd::group_by_key<std::uint32_t, FeatureRef>(
      left_pids, parallelism, grouped_sizer);
  left_pids = {};
  auto right_grouped = rdd::group_by_key<std::uint32_t, FeatureRef>(
      right_pids, parallelism, grouped_sizer);
  right_pids = {};

  const rdd::Sizer<
      std::tuple<std::uint32_t, std::vector<FeatureRef>, std::vector<FeatureRef>>>
      joined_sizer = [rec_overhead](const auto& t) {
        return 4 + rec_overhead + group_bytes(std::get<1>(t), rec_overhead) +
               group_bytes(std::get<2>(t), rec_overhead);
      };
  auto joined = rdd::join_by_key<std::uint32_t, std::vector<FeatureRef>,
                                 std::vector<FeatureRef>>(left_grouped, right_grouped,
                                                          parallelism, joined_sizer);
  left_grouped = {};
  right_grouped = {};

  // ---- 5. Local join per partition pair ------------------------------------
  // Query-owned scratch pool instead of a `static thread_local` scratch:
  // buffers stay warm across the partition pairs of this wave but die with
  // the query, so nothing survives onto the pool threads a serving process
  // keeps around (see core::ScratchPool).
  core::ScratchPool scratch_pool;
  rdd::Rdd<JoinPair> pairs_rdd;
  {
    const core::LocalJoinScope local_join(query, kPaperAlgorithm, config.engine,
                                          shared_cache, &report.counters);
    pairs_rdd = joined.flat_map<JoinPair>(
        "local-join",
        [&](const std::tuple<std::uint32_t, std::vector<FeatureRef>,
                             std::vector<FeatureRef>>& t,
            std::vector<JoinPair>& out) {
          const std::uint32_t pid = std::get<0>(t);
          const auto accept = [&](const geom::Envelope& le, const geom::Envelope& re) {
            return core::owns_reference_point(scheme_bc.value(), pid,
                                              core::reference_point(le, re));
          };
          auto scratch = scratch_pool.acquire();
          core::run_local_join(core::FeatureRefSpan(std::get<1>(t)),
                               core::FeatureRefSpan(std::get<2>(t)), local_join.spec(),
                               accept, *scratch, out);
        },
        make_pair_sizer(rec_overhead));
  }
  finish_pairs(rt, exec, pairs_rdd, "local-join", report);
}

}  // namespace

/// Everything the serving layer keeps resident between queries for one
/// dataset pair, on top of the shared resident contract: the parsed feature
/// store, the per-chunk FeatureRef views the parse stage produced, the
/// partition scheme and the occupancy filters. All of it is produced by the
/// cold path's own preprocessing code (capture-on-build), which is what
/// makes resident queries bit-identical to cold ones.
struct SpatialSparkResident::Impl : core::ResidentBase {
  std::shared_ptr<std::vector<std::vector<Feature>>> store;
  std::vector<std::vector<FeatureRef>> left_chunks;
  std::vector<std::vector<FeatureRef>> right_chunks;
  std::size_t left_count = 0;
  std::size_t right_count = 0;
  std::optional<partition::PartitionScheme> scheme;
  std::optional<core::SymmetricFilter> filters;
};

namespace {

/// Stages 1-2, shared by both plans: read both inputs from HDFS (the run's
/// only DFS touch), parse each once into a run-scoped feature store, sample
/// the right side with the engine's sample(), and derive the partition
/// scheme on the driver. Downstream RDDs ship 8-byte FeatureRef handles into
/// the store; every sizer charges the referenced record's full modeled
/// bytes, so memory registrations, shuffle charges and the OOM gate see the
/// records themselves.
struct SparkInputs {
  // One slot per line partition, filled by the parse stage and kept alive
  // (harness-side only) until the run returns — or, under capture, until
  // the resident catalog entry is dropped. Dropping an Rdd<FeatureRef>
  // handle releases its *modeled* bytes while the backing features stay
  // valid for later refs.
  std::shared_ptr<std::vector<std::vector<Feature>>> store;
  rdd::Rdd<FeatureRef> left;
  rdd::Rdd<FeatureRef> right;
  // Held (and charged) for the whole run, like every input lineage above.
  rdd::Rdd<FeatureRef> sample;
  partition::PartitionScheme scheme;
};

SparkInputs read_parse_and_sample(const workload::Dataset& left,
                                  const workload::Dataset& right,
                                  const core::JoinQueryConfig& query,
                                  const core::ExecutionConfig& exec,
                                  const SpatialSparkConfig& config,
                                  rdd::SparkRuntime& rt, dfs::SimDfs& dfs,
                                  std::uint32_t parallelism,
                                  workload::RowQuarantine& quarantine,
                                  cluster::Counters& counters) {
  const rdd::Sizer<FeatureRef> ref_sizer = make_ref_sizer(config.record_overhead_bytes);
  const rdd::Sizer<std::string> line_sizer = [](const std::string& l) {
    return static_cast<std::uint64_t>(l.size()) + 48;  // JVM string header
  };

  // ---- 1. textFile(...).map(parseWkt) --------------------------------------
  // The text scan is the run's one DFS read, and the WKT parse really
  // executes on the "executors" — a narrow, slot-scaled CPU stage, visible
  // on the 16-slot workstation and cheap on 80 EC2 slots. A malformed line
  // emits nothing and lands in the quarantine instead of throwing
  // mid-stage.
  auto store = std::make_shared<std::vector<std::vector<Feature>>>();
  workload::RowQuarantine* qsink = &quarantine;
  const auto read_and_parse = [&](const workload::Dataset& data,
                                  const std::string& tag) {
    dfs.put(tag + ".raw", std::any(), data.text_bytes());
    auto lines = rdd::Rdd<std::string>::create(
        rt,
        core::chunk_lines(core::input_lines(data, tag, config.spark.faults, counters),
                          parallelism),
        line_sizer, tag + ".text");
    rt.record_input_read(tag + ".read", data.text_bytes(),
                         dfs.block_count(tag + ".raw"));
    const std::size_t base = store->size();
    store->resize(base + lines.num_partitions());
    return lines.map_partitions_indexed<FeatureRef>(
        "parse",
        [store, base, qsink](std::size_t p, const std::vector<std::string>& in,
                             std::vector<FeatureRef>& out) {
          auto& slot = (*store)[base + p];
          slot.reserve(in.size());
          std::string error;
          for (const auto& line : in) {
            if (auto f = workload::try_feature_from_tsv(line, &error)) {
              slot.push_back(std::move(*f));
            } else {
              qsink->divert("spark/parse", line, error);
            }
          }
          out.reserve(slot.size());
          for (const auto& f : slot) out.push_back(FeatureRef{&f});
        },
        ref_sizer);
  };
  auto left_rdd = read_and_parse(left, "A");
  auto right_rdd = read_and_parse(right, "B");

  // ---- 2. Sample the right side, derive partitions on the driver -----------
  const std::uint32_t target_cells =
      core::effective_target_partitions(query, exec.cluster);
  const double sample_rate =
      core::effective_sample_rate(query.sample_rate, right.size(), target_cells);
  auto sample_rdd = right_rdd.sample("sample", sample_rate, query.seed);
  const std::vector<FeatureRef> sample = sample_rdd.collect();

  CpuStopwatch driver_cpu;
  std::vector<geom::Envelope> sample_envs;
  sample_envs.reserve(sample.size());
  for (const auto& r : sample) sample_envs.push_back(r.get().geometry.envelope());
  geom::Envelope joint_extent = left.extent();
  joint_extent.expand_to_include(right.extent());
  partition::PartitionScheme scheme = partition::make_partitions(
      query.partitioner, sample_envs, joint_extent, target_cells);
  rt.record_narrow_stage("driver.partition", {driver_cpu.seconds()});
  return {std::move(store), std::move(left_rdd), std::move(right_rdd),
          std::move(sample_rdd), std::move(scheme)};
}

/// Broadcast-based join (the paper's future-work comparison): the sampled
/// scheme is broadcast as in the partitioned plan, then the entire right
/// side plus its STR index is broadcast and the left side probes it
/// directly — no shuffle at all, but memory cost scales with |right| x
/// nodes.
void run_broadcast_join(rdd::SparkRuntime& rt, const core::JoinQueryConfig& query,
                        const core::ExecutionConfig& exec,
                        const SpatialSparkConfig& config, SparkInputs& in,
                        core::RunReport& report) {
  const std::uint64_t rec_overhead = config.record_overhead_bytes;
  const std::uint64_t scheme_bytes = in.scheme.size_bytes() * 2;  // cells + index
  rdd::Broadcast<partition::PartitionScheme> scheme_bc(rt, std::move(in.scheme),
                                                       scheme_bytes, "scheme");
  struct RightIndex {
    std::vector<FeatureRef> features;
    std::unique_ptr<index::StrTree> tree;
  };
  CpuStopwatch build_cpu;
  auto right_all = in.right.collect();
  std::vector<index::IndexEntry> entries;
  entries.reserve(right_all.size());
  for (std::uint32_t i = 0; i < right_all.size(); ++i) {
    entries.push_back({right_all[i].get().geometry.envelope(), i});
  }
  RightIndex rindex{std::move(right_all),
                    std::make_unique<index::StrTree>(std::move(entries))};
  rt.record_narrow_stage("driver.build-right-index", {build_cpu.seconds()});
  const std::uint64_t rindex_bytes =
      rindex.tree->size_bytes() + group_bytes(rindex.features, rec_overhead);
  rdd::Broadcast<RightIndex> right_bc(rt, std::move(rindex), rindex_bytes,
                                      "right-index");
  // Only the probe side's envelope is widened, so by the full distance.
  const geom::GeometryEngine& engine = geom::GeometryEngine::get(config.engine);
  auto pairs_rdd = in.left.flat_map<JoinPair>(
      "broadcast-join",
      [&](const FeatureRef& r, std::vector<JoinPair>& out) {
        const Feature& f = r.get();
        const RightIndex& ri = right_bc.value();
        std::vector<std::uint32_t> candidates = ri.tree->query_ids(
            f.geometry.envelope().expanded_by(query.within_distance));
        std::sort(candidates.begin(), candidates.end());
        for (const auto rid : candidates) {
          const Feature& rf = ri.features[rid].get();
          if (core::evaluate_predicate(engine, query.predicate, query.within_distance,
                                       f.geometry, rf.geometry)) {
            out.push_back({f.id, rf.id});
          }
        }
      },
      make_pair_sizer(rec_overhead));
  finish_pairs(rt, exec, pairs_rdd, "broadcast-join", report);
}

/// Partition-based join: optional skew refinement and shuffle filter on the
/// driver, scheme broadcast, then the shared assign -> groupByKey x2 ->
/// join -> local-join tail.
///
/// The runtime counts into `ingest` on entry. Stages a resident query skips
/// (skew-refine, filter.build) keep counting there; the broadcasts and the
/// tail, which a resident query re-executes, count into the report. When
/// `capture` is non-null the preprocessing products (feature store, parsed
/// chunks, scheme, filters) are additionally copied into it for resident
/// reuse; the run itself is unaffected.
void run_partitioned_join(const workload::Dataset& left, const workload::Dataset& right,
                          const core::JoinQueryConfig& query,
                          const core::ExecutionConfig& exec,
                          const SpatialSparkConfig& config, rdd::SparkRuntime& rt,
                          SparkInputs& in, std::uint32_t parallelism,
                          cluster::Counters& ingest, core::RunReport& report,
                          SpatialSparkResident::Impl* capture) {
  const std::uint64_t rec_overhead = config.record_overhead_bytes;
  const double expand = query.envelope_expansion();
  partition::PartitionScheme scheme = std::move(in.scheme);

  // ---- 2a. Optional skew-aware hotspot refinement (driver-side) ------------
  // Probe the shuffle load each cell of the sampled scheme would receive
  // (the exact assignment the assign stages perform below, tallied instead
  // of emitted), split hotspot cells, and only then broadcast/capture the
  // scheme — so the resident path and every downstream stage see the
  // refined cell set. Runs before the occupancy filter on purpose: the
  // probe must see unfiltered load, and the bitmaps must be built against
  // the final cells.
  if (config.policy.repartition) {
    CpuStopwatch skew_cpu;
    const auto probe = [&](const partition::PartitionScheme& s) {
      std::vector<plan::CellLoad> loads(s.cell_count());
      for (const rdd::Rdd<FeatureRef>* side : {&in.left, &in.right}) {
        for (const auto& part : side->partitions()) {
          plan::tally_cell_loads(
              s, expand, ref_envelopes(part),
              [&part, rec_overhead](std::size_t i) {
                return 4 + record_bytes(part[i], rec_overhead);
              },
              loads);
        }
      }
      return loads;
    };
    plan::refine_in_place(scheme, query.partitioner, config.policy.skew, probe, &ingest);
    rt.record_narrow_stage("driver.skew-refine", {skew_cpu.seconds()});
  }

  if (capture != nullptr) {
    capture->store = in.store;
    capture->left_chunks.assign(in.left.partitions().begin(),
                                in.left.partitions().end());
    capture->right_chunks.assign(in.right.partitions().begin(),
                                 in.right.partitions().end());
    capture->left_count = left.size();
    capture->right_count = right.size();
    capture->scheme.emplace(scheme);
  }

  // From the scheme broadcast on, a resident query does the same work.
  rt.set_counters(&report.counters);
  const std::uint64_t scheme_bytes = scheme.size_bytes() * 2;  // cells + index
  rdd::Broadcast<partition::PartitionScheme> scheme_bc(rt, std::move(scheme),
                                                       scheme_bytes, "scheme");

  // ---- 2b. Optional map-side shuffle filter (LocationSpark's sFilter) ------
  // Two narrow passes replay the exact (unfiltered) assignment each side's
  // own assign stage would perform and mark each expanded envelope into its
  // cells' occupancy bitmaps; the tail broadcasts both next to the scheme
  // and its assign stages consult them. The broadcast join shuffles
  // nothing to filter.
  std::optional<core::SymmetricFilter> filters;
  if (config.policy.shuffle_filter) {
    CpuStopwatch filter_cpu;
    filters = core::build_symmetric_filter(scheme_bc.value(), expand,
                                           rdd_envelopes(in.left), rdd_envelopes(in.right));
    // Building the bitmaps is ingest work: a resident query reuses them.
    rt.set_counters(&ingest);
    rt.record_narrow_stage("filter.build", {filter_cpu.seconds()});
    rt.set_counters(&report.counters);
    if (capture != nullptr) capture->filters = filters;
  }

  run_spark_join_tail(rt, query, exec, config, std::move(in.left), std::move(in.right),
                      left.size(), right.size(), scheme_bc, std::move(filters),
                      /*shared_cache=*/nullptr, parallelism, report);
}

core::RunReport run_spatial_spark_impl(const workload::Dataset& left,
                                       const workload::Dataset& right,
                                       const core::JoinQueryConfig& query,
                                       const core::ExecutionConfig& exec,
                                       const SpatialSparkConfig& config,
                                       SpatialSparkResident::Impl* capture) {
  workload::RowQuarantine quarantine;
  // Counters of the stages a resident query skips (read, parse, sample,
  // driver.partition, skew-refine, filter.build, plus the injected and
  // quarantined rows), folded into the run's counters by the epilogue —
  // totals are unchanged for a cold run, and a resident build keeps them for
  // replay.
  cluster::Counters ingest_counters;
  // Emplaced inside the body: constructing the runtime validates the fault
  // plan, and an invalid plan must surface as a structured Status, not an
  // escaped exception. The optionals outlive the body so the epilogue can
  // still read peak memory from a partially-run job.
  std::optional<dfs::SimDfs> dfs;
  std::optional<rdd::SparkRuntime> rt;

  const auto body = [&](core::RunReport& report, trace::TraceCollector* trace) {
    dfs.emplace(core::dfs_config(query, exec));
    rt.emplace(exec.cluster, exec.data_scale, &*dfs, &report.metrics, config.spark);
    rt->set_counters(&ingest_counters);
    rt->set_trace(trace);

    const std::uint32_t parallelism = rt->default_parallelism() * 2;

    require(capture == nullptr || !config.broadcast_join,
            "spatial_spark_build_resident: resident mode requires the "
            "partitioned join (not broadcast)");
    SparkInputs inputs = read_parse_and_sample(left, right, query, exec, config, *rt,
                                               *dfs, parallelism, quarantine,
                                               ingest_counters);
    if (config.broadcast_join) {
      // The broadcast plan has no resident form: its stages count directly.
      rt->set_counters(&report.counters);
      run_broadcast_join(*rt, query, exec, config, inputs, report);
    } else {
      run_partitioned_join(left, right, query, exec, config, *rt, inputs, parallelism,
                           ingest_counters, report, capture);
    }
  };
  // SimOutOfMemory (the paper's EC2-8/EC2-6 failure) plus injected faults:
  // TaskFailed past the retry budget, DeadlineExceeded / RetryBudgetExhausted
  // from the lifecycle limits, BlockUnavailable when a lost executor's
  // datanode took the last replica of an input block, and invalid fault
  // plans rejected at runtime construction, all end as a structured Status.
  // The paper reports only end-to-end times for SpatialSpark (stages cannot
  // be attributed cleanly under asynchronous execution); IA/IB/DJ stay NaN.
  return core::run_reported(exec, body, [&](core::RunReport& report) {
    quarantine.flush_counters(ingest_counters);
    report.counters.merge(ingest_counters);
    if (capture != nullptr) capture->ingest_counters = ingest_counters;
    if (rt) report.peak_memory_bytes = rt->memory().peak_paper_bytes();
  });
}

}  // namespace

core::RunReport run_spatial_spark(const workload::Dataset& left,
                                  const workload::Dataset& right,
                                  const core::JoinQueryConfig& query,
                                  const core::ExecutionConfig& exec,
                                  const SpatialSparkConfig& config) {
  if (!config.policy.cost_based_plan) {
    return run_spatial_spark_impl(left, right, query, exec, config, nullptr);
  }
  // Cost-based physical-plan choice: predict both plans from the dataset
  // sizes and the cluster spec, run the cheaper feasible one, and leave the
  // prediction next to the realized wall clock in the plan.* counters.
  const plan::PlanDecision decision =
      choose_spatial_spark_plan(left, right, exec, config, /*resident=*/false);
  SpatialSparkConfig chosen = config;
  chosen.broadcast_join = decision.chosen == plan::PlanKind::kBroadcastJoin;
  core::RunReport report =
      run_spatial_spark_impl(left, right, query, exec, chosen, nullptr);
  plan::record_plan_counters(decision, report.counters);
  plan::record_plan_actual(report.total_seconds, report.counters);
  return report;
}

plan::PlanDecision choose_spatial_spark_plan(const workload::Dataset& left,
                                             const workload::Dataset& right,
                                             const core::ExecutionConfig& exec,
                                             const SpatialSparkConfig& config,
                                             bool resident) {
  return plan::choose_plan(plan::PlanInputs{
      .left_records = left.size(),
      .right_records = right.size(),
      .left_bytes = left.text_bytes(),
      .right_bytes = right.text_bytes(),
      .record_overhead_bytes = config.record_overhead_bytes,
      .replication_factor = std::nullopt,
      .filter_selectivity = std::nullopt,
      .cluster = exec.cluster,
      .data_scale = exec.data_scale,
      .resident = resident,
  });
}

const core::RunReport& SpatialSparkResident::build_report() const {
  return core::require_built(impl_, "SpatialSparkResident").build_report;
}

SpatialSparkResident spatial_spark_build_resident(const workload::Dataset& left,
                                                  const workload::Dataset& right,
                                                  const core::JoinQueryConfig& query,
                                                  const core::ExecutionConfig& exec,
                                                  const SpatialSparkConfig& config) {
  auto impl = std::make_shared<SpatialSparkResident::Impl>();
  impl->build(query, "spatial_spark_build_resident", [&] {
    return run_spatial_spark_impl(left, right, query, exec, config, impl.get());
  });
  SpatialSparkResident resident;
  resident.impl_ = std::move(impl);
  return resident;
}

core::RunReport run_spatial_spark_resident(const SpatialSparkResident& resident,
                                           const core::JoinQueryConfig& query,
                                           const core::ExecutionConfig& exec,
                                           const SpatialSparkConfig& config,
                                           geom::PreparedCache* shared_cache) {
  const SpatialSparkResident::Impl& impl =
      core::require_built(resident.impl_, "run_spatial_spark_resident");
  std::optional<dfs::SimDfs> dfs;
  std::optional<rdd::SparkRuntime> rt;
  const auto body = [&](core::RunReport& report, trace::TraceCollector* trace) {
    impl.begin_query(query, "run_spatial_spark_resident", report);
    dfs.emplace(core::dfs_config(query, exec));
    rt.emplace(exec.cluster, exec.data_scale, &*dfs, &report.metrics, config.spark);
    rt->set_counters(&report.counters);
    rt->set_trace(trace);
    const std::uint32_t parallelism = rt->default_parallelism() * 2;

    // Re-materialize the resident inputs as cached RDDs: the per-chunk
    // FeatureRef views captured at build time, charged at full modeled bytes
    // (the resident working set lives in executor memory). No read, no
    // parse, no sample, no driver.partition, no filter.build — that is the
    // serving win; everything downstream is the cold path's own code.
    const rdd::Sizer<FeatureRef> ref_sizer = make_ref_sizer(config.record_overhead_bytes);
    auto left_rdd = rdd::Rdd<FeatureRef>::create(*rt, impl.left_chunks, ref_sizer,
                                                 "A.resident");
    auto right_rdd = rdd::Rdd<FeatureRef>::create(*rt, impl.right_chunks, ref_sizer,
                                                  "B.resident");

    // The scheme and filters still ship to the executors each query
    // (distributed-cache refresh), so broadcast charges stay in the model.
    partition::PartitionScheme scheme = *impl.scheme;
    const std::uint64_t scheme_bytes = scheme.size_bytes() * 2;
    rdd::Broadcast<partition::PartitionScheme> scheme_bc(*rt, std::move(scheme),
                                                         scheme_bytes, "scheme");
    run_spark_join_tail(*rt, query, exec, config, std::move(left_rdd),
                        std::move(right_rdd), impl.left_count, impl.right_count,
                        scheme_bc, impl.filters, shared_cache, parallelism, report);
  };
  return core::run_reported(exec, body, [&](core::RunReport& report) {
    if (rt) report.peak_memory_bytes = rt->memory().peak_paper_bytes();
  });
}

}  // namespace sjc::systems
