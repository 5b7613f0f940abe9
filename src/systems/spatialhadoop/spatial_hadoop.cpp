#include "systems/spatialhadoop/spatial_hadoop.hpp"

#include <atomic>
#include <memory>
#include <ranges>

#include "core/feature_view.hpp"
#include "core/join_pipeline.hpp"
#include "index/str_tree.hpp"
#include "mapreduce/map_reduce.hpp"
#include "partition/partitioner.hpp"
#include "partition/sampler.hpp"
#include "plan/partition_refiner.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace sjc::systems {

namespace {

using core::JoinPair;

/// SpatialHadoop's serial in-partition join (the paper names plane-sweep
/// and synchronized R-tree traversal as its options; plane-sweep is the
/// default), unless the query overrides it.
constexpr auto kPaperAlgorithm = index::LocalJoinAlgorithm::kPlaneSweep;

/// One partition block file: the records shuffled into a partition plus the
/// STR index packed at the head of the block. The block stores `indices`
/// into the source dataset's stable feature span (`base`) instead of
/// feature copies; `text_bytes` is the modeled on-disk size.
struct PartBlock {
  std::span<const geom::Feature> base;
  std::vector<std::uint32_t> indices;
  std::uint64_t text_bytes = 0;

  core::FeatureIndexSpan view() const { return {base, indices}; }
};

struct IndexedDataset {
  partition::PartitionScheme scheme{std::vector<geom::Envelope>{geom::Envelope(0, 0, 1, 1)},
                                    geom::Envelope(0, 0, 1, 1)};
  std::vector<std::shared_ptr<PartBlock>> blocks;  // by partition id
  std::string dfs_prefix;
};

/// The partition job's per-record counts, summed on the pool threads
/// without touching the shared Counters (relaxed atomics: sums do not
/// depend on the interleaving) and flushed into them once per job.
struct PartitionTally {
  std::atomic<std::uint64_t> records{0};
  std::atomic<std::uint64_t> kept{0};
  std::atomic<std::uint64_t> placed_records{0};  // records with >= 1 kept copy
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> dropped_bytes{0};

  /// One input record: `kept_copies` emitted, `dropped_copies` filtered
  /// out, each worth `copy_bytes` of shuffle.
  void record(std::size_t kept_copies, std::uint32_t dropped_copies,
              std::uint64_t copy_bytes) {
    constexpr auto relaxed = std::memory_order_relaxed;
    records.fetch_add(1, relaxed);
    if (kept_copies > 0) {
      kept.fetch_add(kept_copies, relaxed);
      placed_records.fetch_add(1, relaxed);
    }
    if (dropped_copies > 0) {
      dropped.fetch_add(dropped_copies, relaxed);
      dropped_bytes.fetch_add(dropped_copies * copy_bytes, relaxed);
    }
  }

  /// Creates exactly the keys per-record adds would: none for an empty
  /// input, shuffle.* only with `count_shuffle`, shuffle.filtered_* only
  /// if some copy was dropped.
  void flush(cluster::Counters& sink, bool count_shuffle) const {
    if (records == 0) return;
    sink.add("partition.assignments", kept);
    sink.add("partition.records", records);
    sink.add("partition.duplicated_records", kept - placed_records);
    if (!count_shuffle) return;
    sink.add("shuffle.assigned_records", kept + dropped);
    sink.add("shuffle.records", kept);
    if (dropped > 0) {
      sink.add("shuffle.filtered_records", dropped);
      sink.add("shuffle.filtered_bytes", dropped_bytes);
    }
  }
};

/// What the shuffle filter is built from: the already-indexed resident
/// (right) dataset. The streamed side marks every resident block's expanded
/// record envelopes into each of its own cells that intersect the resident
/// cell, so any (cellA, cellB) split the global join can later pair is
/// covered by construction.
struct FilterSource {
  const IndexedDataset* indexed;
  const workload::Dataset* data;
};

/// The two preprocessing MR jobs for one dataset ("indexA"/"indexB" in the
/// paper's Table 3 breakdown). When `filter_source` is non-null a per-cell
/// occupancy bitmap is derived from it on the master (a third, cheap
/// master-side step) and the partition job drops record copies the bitmap
/// proves can match nothing in their target cell. With the filter knob on,
/// both datasets' partition jobs count shuffle.assigned_records /
/// shuffle.records / shuffle.filtered_*, so assigned == shuffled + filtered
/// holds globally.
IndexedDataset index_dataset(mapreduce::MrContext& ctx, const workload::Dataset& data,
                             const std::string& tag, const core::JoinQueryConfig& query,
                             const core::ExecutionConfig& exec,
                             const SpatialHadoopConfig& config,
                             const FilterSource* filter_source = nullptr) {
  IndexedDataset out;
  out.dfs_prefix = tag + ".part/";
  const std::uint32_t target_cells = core::effective_target_partitions(query, exec.cluster);

  // Raw input sits in HDFS.
  ctx.dfs->put(tag + ".raw", std::any(), data.text_bytes());

  // ---- Job 1: sample MBRs (map-only) + central partition generation ------
  const auto ranges = data.split_ranges(std::max<std::size_t>(
      ctx.dfs->block_count(tag + ".raw"), exec.cluster.total_slots()));
  Rng sample_rng(query.seed ^ std::hash<std::string>{}(tag));

  struct SampleSplit {
    std::size_t begin;
    std::size_t end;
    Rng rng;
  };
  std::vector<SampleSplit> sample_splits;
  sample_splits.reserve(ranges.size());
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    sample_splits.push_back({ranges[s].first, ranges[s].second, sample_rng.fork(s)});
  }

  const double sample_rate =
      core::effective_sample_rate(query.sample_rate, data.size(), target_cells);
  const auto sample_map = [&data, sample_rate](const SampleSplit& split,
                                               std::vector<geom::Envelope>& out_envs) {
    const auto envs = data.envelopes();
    Rng rng = split.rng;  // task-local copy keeps the job deterministic
    for (std::size_t i = split.begin; i < split.end; ++i) {
      if (rng.bernoulli(sample_rate)) out_envs.push_back(envs[i]);
    }
  };
  const auto sample_split_bytes = [&data](const SampleSplit& split) {
    std::uint64_t bytes = 0;
    for (std::size_t i = split.begin; i < split.end; ++i) {
      bytes += data.record_text_bytes(i);
    }
    return bytes;
  };
  const auto sample_output_bytes = [](const geom::Envelope&) -> std::uint64_t {
    return 32;
  };
  auto sample_spec = mapreduce::make_typed_map_only_spec<SampleSplit, geom::Envelope>(
      tag + "/sample", sample_map, sample_split_bytes, sample_output_bytes);
  sample_spec.config = config.mr;
  const std::vector<geom::Envelope> sample =
      mapreduce::run_map_only(ctx, sample_spec, sample_splits);

  // Central scheme derivation (the SpatialHadoop master writes the _master
  // file that subsequent jobs read via HDFS).
  CpuStopwatch master_cpu;
  out.scheme = partition::make_partitions(query.partitioner, sample, data.extent(),
                                          target_cells);
  const std::uint64_t master_bytes = out.scheme.size_bytes();
  ctx.dfs->put(tag + "._master", std::any(), master_bytes);
  mapreduce::charge_master_step(ctx, tag + "/master-partition", master_cpu.seconds(),
                                /*read=*/sample.size() * 32, /*write=*/master_bytes);

  const double expand = query.envelope_expansion();

  // ---- Optional master step: skew-aware hotspot refinement ----------------
  // Probe the per-cell load the partition job below would shuffle (the same
  // expanded-envelope assignment, tallied instead of emitted), split hotspot
  // cells on the master, and rewrite the _master file — so Job 2, the
  // shuffle filter and getSplits all see the refined cell set.
  if (config.policy.repartition) {
    CpuStopwatch skew_cpu;
    const auto probe = [&](const partition::PartitionScheme& s) {
      std::vector<plan::CellLoad> loads(s.cell_count());
      plan::tally_cell_loads(
          s, expand, data.envelopes(),
          [&data](std::size_t i) { return 4 + data.record_text_bytes(i); }, loads);
      return loads;
    };
    plan::refine_in_place(out.scheme, query.partitioner, config.policy.skew, probe,
                          ctx.counters);
    const std::uint64_t refined_bytes = out.scheme.size_bytes();
    ctx.dfs->put(tag + "._master", std::any(), refined_bytes);
    mapreduce::charge_master_step(ctx, tag + "/skew-refine", skew_cpu.seconds(),
                                  /*read=*/master_bytes, /*write=*/refined_bytes);
  }

  // ---- Optional master step: build the shuffle filter from the resident
  // side's partition blocks. Every resident record's expanded envelope is
  // marked into each of *this* scheme's cells intersecting its resident
  // cell; a later split (cellA, cellB) exists only if those cells intersect,
  // so every pair the local join could emit is covered by some mark. The
  // bitmap is tiny (a few uint64 words per cell) and lands in the
  // distributed cache next to the _master file.
  std::unique_ptr<geom::OccupancyFilter> sfilter;
  if (filter_source != nullptr) {
    CpuStopwatch filter_cpu;
    sfilter = std::make_unique<geom::OccupancyFilter>(out.scheme.cells());
    const auto src_envs = filter_source->data->envelopes();
    const IndexedDataset& src = *filter_source->indexed;
    std::vector<std::uint32_t> cells_scratch;
    std::uint64_t src_bytes = 0;
    for (std::uint32_t pb = 0; pb < src.blocks.size(); ++pb) {
      const auto& block = src.blocks[pb];
      if (block == nullptr) continue;
      src_bytes += block->text_bytes;
      out.scheme.assign_into(src.scheme.cells()[pb], cells_scratch);
      for (const auto src_idx : block->indices) {
        const geom::Envelope env = src_envs[src_idx].expanded_by(expand);
        for (const auto ca : cells_scratch) sfilter->mark(ca, env);
      }
    }
    const std::uint64_t filter_bytes = sfilter->size_bytes();
    ctx.dfs->put(tag + "._sfilter", std::any(), filter_bytes);
    mapreduce::charge_master_step(ctx, tag + "/filter-build", filter_cpu.seconds(),
                                  /*read=*/src_bytes, /*write=*/filter_bytes);
  }

  // ---- Job 2: partition + pack per-block index (full MR) ------------------
  std::vector<std::vector<std::uint32_t>> idx_splits;
  idx_splits.reserve(ranges.size());
  for (const auto& [begin, end] : ranges) {
    const auto ids = std::views::iota(static_cast<std::uint32_t>(begin),
                                      static_cast<std::uint32_t>(end));
    idx_splits.emplace_back(ids.begin(), ids.end());
  }

  out.blocks.assign(out.scheme.cell_count(), nullptr);

  // The map assigns a record to every cell its expanded envelope touches;
  // the reduce materializes one block per cell (indices into the dataset's
  // stable feature span) and packs its STR index.
  const geom::OccupancyFilter* filt = sfilter.get();
  PartitionTally tally;
  const auto part_map = [&data, &out, expand, filt, &tally](const std::uint32_t& idx,
                                                           const auto& emit) {
    // Per-thread scratch keeps the assignment free of per-record
    // allocation; it is cleared and refilled on every call.
    static thread_local std::vector<std::uint32_t> pids_scratch;
    const geom::Envelope env = data.envelopes()[idx].expanded_by(expand);
    std::uint32_t dropped = 0;
    if (filt != nullptr) {
      // Filtered assignment: true negatives never reach the emit (never
      // buffered, never shuffled); a fully filtered record vanishes here.
      dropped = out.scheme.assign_into(env, *filt, pids_scratch);
    } else {
      out.scheme.assign_into(env, pids_scratch);
    }
    const auto& pids = pids_scratch;
    for (const auto pid : pids) emit(pid, idx);
    tally.record(pids.size(), dropped, dropped > 0 ? 4 + data.record_text_bytes(idx) : 0);
  };
  const auto part_reduce = [&data, &out](const std::uint32_t& pid,
                                         std::vector<std::uint32_t>& idxs,
                                         std::vector<std::uint32_t>& outv) {
    auto block = std::make_shared<PartBlock>();
    // Pack an STR index into the block head (built while writing: "virtually
    // for free" in disk terms, but its CPU cost is real and measured here).
    const auto envs = data.envelopes();
    std::vector<index::IndexEntry> entries;
    entries.reserve(idxs.size());
    for (std::uint32_t i = 0; i < idxs.size(); ++i) {
      block->text_bytes += data.record_text_bytes(idxs[i]);
      entries.push_back({envs[idxs[i]], i});
    }
    block->base = std::span<const geom::Feature>(data.features());
    block->indices = std::move(idxs);
    const index::StrTree tree(std::move(entries));
    block->text_bytes += tree.size_bytes() / 4;  // serialized index is compact
    out.blocks[pid] = block;
    outv.push_back(pid);
  };
  const auto part_input_bytes = [&data](const std::uint32_t& idx) {
    return data.record_text_bytes(idx);
  };
  const auto part_pair_bytes = [&data](const std::uint32_t&, const std::uint32_t& idx) {
    return 4 + data.record_text_bytes(idx);
  };
  const auto part_output_bytes = [&out](const std::uint32_t& pid) {
    return out.blocks[pid] != nullptr ? out.blocks[pid]->text_bytes : 0;
  };
  auto part_spec = mapreduce::make_typed_spec<std::uint32_t, std::uint32_t,
                                              std::uint32_t, std::uint32_t>(
      tag + "/partition", part_map, part_reduce, part_input_bytes, part_pair_bytes,
      part_output_bytes);
  part_spec.config = config.mr;
  // The map's counts land also when the job fails after its map ran (a
  // task exhausting its attempts), so a failed run still reports them.
  const auto flush_tally = [&] {
    if (ctx.counters != nullptr) {
      tally.flush(*ctx.counters, config.policy.shuffle_filter);
    }
  };
  try {
    mapreduce::run_map_reduce(ctx, part_spec, idx_splits);
  } catch (...) {
    flush_tally();
    throw;
  }
  flush_tally();

  // Record the block files in the DFS catalog.
  for (std::uint32_t pid = 0; pid < out.blocks.size(); ++pid) {
    if (out.blocks[pid] != nullptr) {
      ctx.dfs->put(out.dfs_prefix + std::to_string(pid), std::any(out.blocks[pid]),
                   out.blocks[pid]->text_bytes);
    }
  }
  return out;
}

/// The distributed-join stage shared by the end-to-end, pre-indexed and
/// resident entry points: getSplits on the master, then a map-only
/// local-join job. `shared_cache`, when non-null, is a cross-query
/// geom::PreparedCache owned by the caller (the serving catalog); the
/// join's cache-hit counters always record only this run's delta.
std::vector<JoinPair> run_distributed_join(mapreduce::MrContext& ctx,
                                           const IndexedDataset& ia,
                                           const IndexedDataset& ib,
                                           const core::JoinQueryConfig& query,
                                           const SpatialHadoopConfig& config,
                                           geom::PreparedCache* shared_cache = nullptr) {
  // ---- Global join in getSplits(): master-side MBR join of partitions ------
  CpuStopwatch splits_cpu;
  struct JoinSplit {
    std::uint32_t pa;
    std::uint32_t pb;
  };
  std::vector<JoinSplit> join_splits;
  {
    std::vector<index::IndexEntry> cells_a;
    std::vector<index::IndexEntry> cells_b;
    for (std::uint32_t i = 0; i < ia.scheme.cell_count(); ++i) {
      if (ia.blocks[i] != nullptr) cells_a.push_back({ia.scheme.cells()[i], i});
    }
    for (std::uint32_t i = 0; i < ib.scheme.cell_count(); ++i) {
      if (ib.blocks[i] != nullptr) cells_b.push_back({ib.scheme.cells()[i], i});
    }
    index::plane_sweep_join(cells_a, cells_b, [&](std::uint32_t a, std::uint32_t b) {
      join_splits.push_back({a, b});
    });
  }
  mapreduce::charge_master_step(
      ctx, "join/getSplits", splits_cpu.seconds(),
      /*read=*/ia.scheme.size_bytes() + ib.scheme.size_bytes(), /*write=*/0);

  // ---- Local join: map-only job, one task per partition pair ---------------
  // One prepared-geometry cache per join wave (or the caller's resident
  // cache): overlap-duplicated B-side geometries are bound once and shared
  // across partition pairs (and across the concurrently running map tasks —
  // the cache is thread-safe).
  const core::LocalJoinScope local_join(query, kPaperAlgorithm, config.engine,
                                        shared_cache, ctx.counters);
  const core::LocalJoinSpec& local_spec = local_join.spec();

  // Query-owned scratch pool instead of a `static thread_local` scratch:
  // index trees and candidate buffers stay warm across the partition pairs
  // of this join wave but die with the query, so nothing survives onto the
  // pool threads a serving process keeps around (see core::ScratchPool).
  core::ScratchPool scratch_pool;
  const auto join_map = [&](const JoinSplit& split, std::vector<JoinPair>& out_pairs) {
    // Reference-point duplicate avoidance across both datasets' schemes:
    // emit only in the canonical cell pair containing the reference point.
    const auto accept = [&](const geom::Envelope& le, const geom::Envelope& re) {
      const geom::Coord p = core::reference_point(le, re);
      return core::owns_reference_point(ia.scheme, split.pa, p) &&
             core::owns_reference_point(ib.scheme, split.pb, p);
    };
    auto scratch = scratch_pool.acquire();
    core::run_local_join(ia.blocks[split.pa]->view(), ib.blocks[split.pb]->view(),
                         local_spec, accept, *scratch, out_pairs);
  };
  const auto join_split_bytes = [&](const JoinSplit& split) {
    return ia.blocks[split.pa]->text_bytes + ib.blocks[split.pb]->text_bytes;
  };
  const auto join_output_bytes = [](const JoinPair&) -> std::uint64_t { return 16; };
  auto join_spec = mapreduce::make_typed_map_only_spec<JoinSplit, JoinPair>(
      "join/local", join_map, join_split_bytes, join_output_bytes);
  join_spec.config = config.mr;
  std::vector<JoinPair> pairs = mapreduce::run_map_only(ctx, join_spec, join_splits);
  if (ctx.counters != nullptr) {
    ctx.counters->add("join.partition_pairs", join_splits.size());
    ctx.counters->add("join.result_pairs", pairs.size());
  }
  return pairs;
}

/// The epilogue of every SpatialHadoop entry point: a successful run
/// reports the paper's IA/IB/DJ breakdown; a failed one only its total.
void record_success_breakdown(core::RunReport& report) {
  if (report.success) core::record_breakdown(report);
}

}  // namespace

/// Everything the serving layer keeps resident between queries for one
/// dataset pair, on top of the shared resident contract: owned copies of
/// both datasets (partition blocks span the indexed dataset's feature array,
/// so the resident state must index its own copies) plus the indexed
/// partition directories the cold driver's own preprocessing built over
/// them.
struct SpatialHadoopResident::Impl : core::ResidentBase {
  workload::Dataset left;
  workload::Dataset right;
  IndexedDataset ia;
  IndexedDataset ib;
};

namespace {

/// A join over inputs indexed beforehand — the pre-indexed path, or a
/// resident query when `resident` is non-null: getSplits + the local join on
/// a fresh DFS and context. The block files were persisted when the inputs
/// were indexed; nothing is re-put, and IA = IB = 0.
core::RunReport run_join_only(const IndexedDataset& ia, const IndexedDataset& ib,
                              const core::JoinQueryConfig& query,
                              const core::ExecutionConfig& exec,
                              const SpatialHadoopConfig& config,
                              const SpatialHadoopResident::Impl* resident,
                              geom::PreparedCache* shared_cache) {
  const auto body = [&](core::RunReport& report, trace::TraceCollector* trace) {
    if (resident != nullptr) {
      resident->begin_query(query, "run_spatial_hadoop_resident", report);
    }
    dfs::SimDfs dfs(core::dfs_config(query, exec));
    mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &report.counters};
    ctx.trace = trace;
    core::record_result(
        report, run_distributed_join(ctx, ia, ib, query, config, shared_cache), exec);
  };
  return core::run_reported(exec, body, record_success_breakdown);
}

core::RunReport run_spatial_hadoop_impl(const workload::Dataset& left,
                                        const workload::Dataset& right,
                                        const core::JoinQueryConfig& query,
                                        const core::ExecutionConfig& exec,
                                        const SpatialHadoopConfig& config,
                                        SpatialHadoopResident::Impl* capture) {
  // Indexing counts into its own sink, folded into the run's counters by the
  // epilogue — totals are unchanged for a cold run (failed or not), and a
  // resident build keeps the ingest share to replay into resident queries.
  cluster::Counters ingest_counters;

  const auto body = [&](core::RunReport& report, trace::TraceCollector* trace) {
    // Fault-plan validation and DFS setup inside the body: a chaos-generated
    // invalid plan reports a structured Status instead of escaping.
    dfs::SimDfs dfs(core::dfs_config(query, exec));
    const cluster::FaultInjector faults(config.faults);
    mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &ingest_counters, &faults};
    ctx.trace = trace;

    // ---- Preprocessing: index both inputs (IA, IB) -------------------------
    // With the shuffle filter on, the resident (right) side is indexed first
    // so its partition blocks can seed the occupancy bitmap that prunes the
    // streamed (left) side's shuffle.
    IndexedDataset ia;
    IndexedDataset ib;
    if (config.policy.shuffle_filter) {
      ib = index_dataset(ctx, right, "B", query, exec, config);
      const FilterSource source{&ib, &right};
      ia = index_dataset(ctx, left, "A", query, exec, config, &source);
    } else {
      ia = index_dataset(ctx, left, "A", query, exec, config);
      ib = index_dataset(ctx, right, "B", query, exec, config);
    }
    ctx.counters = &report.counters;
    if (capture != nullptr) {
      capture->ia = ia;
      capture->ib = ib;
    }
    core::record_result(report, run_distributed_join(ctx, ia, ib, query, config), exec);
  };
  // SpatialHadoop has no intrinsic failure modes; injected faults (TaskFailed
  // past the retry budget, BlockUnavailable, lifecycle kills) and invalid
  // fault plans end as a structured Status.
  return core::run_reported(exec, body, [&](core::RunReport& report) {
    report.counters.merge(ingest_counters);
    if (capture != nullptr) capture->ingest_counters = ingest_counters;
    record_success_breakdown(report);
  });
}

}  // namespace

core::RunReport run_spatial_hadoop(const workload::Dataset& left,
                                   const workload::Dataset& right,
                                   const core::JoinQueryConfig& query,
                                   const core::ExecutionConfig& exec,
                                   const SpatialHadoopConfig& config) {
  return run_spatial_hadoop_impl(left, right, query, exec, config, nullptr);
}

const core::RunReport& SpatialHadoopResident::build_report() const {
  return core::require_built(impl_, "SpatialHadoopResident").build_report;
}

SpatialHadoopResident spatial_hadoop_build_resident(const workload::Dataset& left,
                                                    const workload::Dataset& right,
                                                    const core::JoinQueryConfig& query,
                                                    const core::ExecutionConfig& exec,
                                                    const SpatialHadoopConfig& config) {
  auto impl = std::make_shared<SpatialHadoopResident::Impl>();
  // Copy the datasets first and index the copies: partition blocks borrow
  // the indexed dataset's feature span, which must outlive the catalog entry.
  impl->left = left;
  impl->right = right;
  impl->build(query, "spatial_hadoop_build_resident", [&] {
    return run_spatial_hadoop_impl(impl->left, impl->right, query, exec, config,
                                   impl.get());
  });
  SpatialHadoopResident resident;
  resident.impl_ = std::move(impl);
  return resident;
}

core::RunReport run_spatial_hadoop_resident(const SpatialHadoopResident& resident,
                                            const core::JoinQueryConfig& query,
                                            const core::ExecutionConfig& exec,
                                            const SpatialHadoopConfig& config,
                                            geom::PreparedCache* shared_cache) {
  const SpatialHadoopResident::Impl& impl =
      core::require_built(resident.impl_, "run_spatial_hadoop_resident");
  return run_join_only(impl.ia, impl.ib, query, exec, config, &impl, shared_cache);
}

// ---------------------------------------------------------------------------
// Pre-indexed ("re-partitioning skipped") path
// ---------------------------------------------------------------------------

struct SpatialHadoopIndex::Impl {
  IndexedDataset data;
};

double SpatialHadoopIndex::build_seconds() const { return metrics_.total_seconds(); }

std::size_t SpatialHadoopIndex::partition_count() const {
  std::size_t n = 0;
  for (const auto& block : impl_->data.blocks) {
    if (block != nullptr) ++n;
  }
  return n;
}

SpatialHadoopIndex spatial_hadoop_build_index(const workload::Dataset& data,
                                              const core::JoinQueryConfig& query,
                                              const core::ExecutionConfig& exec,
                                              const SpatialHadoopConfig& config) {
  SpatialHadoopIndex index;
  index.name_ = data.name();
  dfs::SimDfs dfs(core::dfs_config(query, exec));
  mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &index.metrics_,
                           nullptr};
  auto impl = std::make_shared<SpatialHadoopIndex::Impl>();
  impl->data = index_dataset(ctx, data, data.name(), query, exec, config);
  index.impl_ = std::move(impl);
  return index;
}

core::RunReport run_spatial_hadoop_indexed(const SpatialHadoopIndex& left,
                                           const SpatialHadoopIndex& right,
                                           const core::JoinQueryConfig& query,
                                           const core::ExecutionConfig& exec,
                                           const SpatialHadoopConfig& config) {
  require(left.impl_ != nullptr && right.impl_ != nullptr,
          "run_spatial_hadoop_indexed: indexes must be built first");
  return run_join_only(left.impl_->data, right.impl_->data, query, exec, config,
                       /*resident=*/nullptr, /*shared_cache=*/nullptr);
}

}  // namespace sjc::systems
