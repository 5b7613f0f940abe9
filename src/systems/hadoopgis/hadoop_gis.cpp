#include "systems/hadoopgis/hadoop_gis.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "core/join_pipeline.hpp"
#include "geom/wkt.hpp"
#include "index/rtree_dynamic.hpp"
#include "partition/partitioner.hpp"
#include "plan/partition_refiner.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "workload/quarantine.hpp"
#include "workload/tsv.hpp"

namespace sjc::systems {

namespace {

using core::chunk_lines;
using core::JoinPair;
using mapreduce::StreamingSpec;

/// The local join HadoopGIS runs: libspatialindex R-tree, insert-built per
/// task (unless the query overrides the algorithm).
constexpr auto kPaperAlgorithm = index::LocalJoinAlgorithm::kIndexedNestedLoopDynamic;

std::uint64_t lines_bytes(const std::vector<std::string>& lines) {
  std::uint64_t total = 0;
  for (const auto& l : lines) total += l.size() + 1;
  return total;
}

std::string mbr_line(const geom::Envelope& e) {
  return "m\t" + format_double(e.min_x()) + " " + format_double(e.min_y()) + " " +
         format_double(e.max_x()) + " " + format_double(e.max_y());
}

geom::Envelope parse_mbr_line(const std::string& line) {
  // Reparse scratch: this runs once per record in the streaming loops, so
  // the token vectors are thread_local and reused instead of reallocated.
  static thread_local std::vector<std::string_view> fields;
  static thread_local std::vector<std::string_view> nums;
  split_into(line, '\t', fields);
  split_into(trim(fields.at(1)), ' ', nums);
  return {parse_double(nums.at(0)), parse_double(nums.at(1)), parse_double(nums.at(2)),
          parse_double(nums.at(3))};
}

/// Copies every line through: format conversion at this fidelity, a
/// constant-key shuffle, the map half of sort-unique.
void pass_through(const std::string& line, std::vector<std::string>& emit) {
  emit.push_back(line);
}

/// cat | sort | uniq: input arrives sorted; drop exact duplicates.
void sort_unique(const std::vector<std::string>& lines, std::vector<std::string>& emit) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == 0 || lines[i] != lines[i - 1]) emit.push_back(lines[i]);
  }
}

/// The partition index every mapper rebuilds from the broadcast partition
/// file (an insert-built R-tree — a HadoopGIS design cost the paper calls
/// out explicitly), with the scheme's nearest-cell fallback.
class MapperCellIndex {
 public:
  explicit MapperCellIndex(const partition::PartitionScheme& scheme) : scheme_(&scheme) {
    for (std::uint32_t pid = 0; pid < scheme.cell_count(); ++pid) {
      tree_.insert(scheme.cells()[pid], pid);
    }
  }

  std::vector<std::uint32_t> assign(const geom::Envelope& env) const {
    std::vector<std::uint32_t> pids = tree_.query_ids(env);
    if (pids.empty()) pids = scheme_->assign(env);
    return pids;
  }

 private:
  index::DynamicRTree tree_;
  const partition::PartitionScheme* scheme_;
};

struct PreprocessedDataset {
  std::vector<std::string> partitioned_lines;  // "p<pid>\t<id>\t<wkt>[\t<pad>]"
  std::vector<geom::Envelope> samples;
  std::uint64_t sample_text_bytes = 0;
  geom::Envelope extent;
};

struct GisContext {
  mapreduce::MrContext* mr;
  mapreduce::StreamingConfig streaming;
  const core::JoinQueryConfig* query;
  const core::ExecutionConfig* exec;
  const HadoopGisConfig* config;
  /// Sink for malformed records on every streaming reparse path; the
  /// hardened parse sites divert bad rows here instead of dying mid-phase.
  workload::RowQuarantine* quarantine;
};

/// The six-step HadoopGIS preprocessing for one dataset (paper §II.A).
PreprocessedDataset preprocess(GisContext& gis, const workload::Dataset& data,
                               const std::string& tag) {
  PreprocessedDataset out;
  mapreduce::MrContext& ctx = *gis.mr;
  const std::size_t split_count =
      std::max<std::size_t>(gis.exec->cluster.total_slots(),
                            data.text_bytes() / ctx.dfs->config().block_size + 1);

  auto raw_splits = chunk_lines(
      core::input_lines(data, tag, gis.config->faults, *ctx.counters), split_count);
  {
    std::uint64_t raw_bytes = 0;
    for (const auto& s : raw_splits) raw_bytes += lines_bytes(s);
    ctx.dfs->put(tag + ".raw", std::any(), raw_bytes);
  }

  // ---- Step 1: map-only convert-to-TSV job (reads/writes everything) ------
  StreamingSpec convert;
  convert.name = tag + "/1-convert";
  convert.config = gis.streaming;
  // Format conversion: the real system rewrites OGR fields to TSV; the work
  // that remains at this fidelity is copying every byte through.
  convert.map = pass_through;
  auto converted = chunk_lines(
      mapreduce::run_streaming_map_only(ctx, convert, raw_splits), split_count);
  raw_splits.clear();

  // ---- Step 2: map-only sample job (parses WKT of every record!) ----------
  Rng sample_base(gis.query->seed ^ std::hash<std::string>{}(tag));
  StreamingSpec sample;
  sample.name = tag + "/2-sample";
  sample.config = gis.streaming;
  const double sample_rate = core::effective_sample_rate(
      gis.query->sample_rate, data.size(),
      core::effective_target_partitions(*gis.query, gis.exec->cluster));
  workload::RowQuarantine* quarantine = gis.quarantine;
  const std::string sample_site = sample.name;
  sample.make_mapper = [&, quarantine, sample_site](std::size_t task)
      -> mapreduce::StreamingMapFn {
    auto rng = std::make_shared<Rng>(sample_base.fork(task));
    const double rate = sample_rate;
    return [rng, rate, quarantine, sample_site](const std::string& line,
                                                std::vector<std::string>& emit) {
      std::string error;
      const auto f = workload::try_feature_from_tsv(line, &error);
      if (!f) {
        quarantine->divert(sample_site, line, error);
        return;
      }
      if (rng->bernoulli(rate)) emit.push_back(mbr_line(f->geometry.envelope()));
    };
  };
  const auto sample_lines = mapreduce::run_streaming_map_only(ctx, sample, converted);
  out.sample_text_bytes = lines_bytes(sample_lines);

  // ---- Step 3: MR job, single reducer: dataset extent ----------------------
  StreamingSpec extent_job;
  extent_job.name = tag + "/3-extent";
  extent_job.config = gis.streaming;
  extent_job.config.mr.reduce_tasks = 1;
  extent_job.map = pass_through;  // constant key "m": everything meets at one reducer
  extent_job.reduce = [](const std::vector<std::string>& lines,
                         std::vector<std::string>& emit) {
    geom::Envelope extent;
    for (const auto& line : lines) extent.expand_to_include(parse_mbr_line(line));
    emit.push_back(mbr_line(extent));
  };
  const auto extent_lines =
      mapreduce::run_streaming(ctx, extent_job, chunk_lines(sample_lines, 4));
  out.extent = parse_mbr_line(extent_lines.at(0));

  // ---- Step 4: map-only normalize job --------------------------------------
  const geom::Envelope extent = out.extent;
  StreamingSpec normalize;
  normalize.name = tag + "/4-normalize";
  normalize.config = gis.streaming;
  normalize.map = [extent](const std::string& line, std::vector<std::string>& emit) {
    const geom::Envelope e = parse_mbr_line(line);
    const double w = std::max(extent.width(), 1e-12);
    const double h = std::max(extent.height(), 1e-12);
    emit.push_back(mbr_line({(e.min_x() - extent.min_x()) / w,
                             (e.min_y() - extent.min_y()) / h,
                             (e.max_x() - extent.min_x()) / w,
                             (e.max_y() - extent.min_y()) / h}));
  };
  const auto norm_lines = mapreduce::run_streaming_map_only(
      ctx, normalize, chunk_lines(sample_lines, gis.exec->cluster.total_slots()));

  // ---- Step 5: local serial partition generation ---------------------------
  // Samples are copied out of HDFS, partitions computed serially and copied
  // back — the paper flags the copy round-trip as a bottleneck.
  CpuStopwatch master_cpu;
  out.samples.reserve(norm_lines.size());
  {
    const double w = std::max(extent.width(), 1e-12);
    const double h = std::max(extent.height(), 1e-12);
    for (const auto& line : norm_lines) {
      const geom::Envelope n = parse_mbr_line(line);
      out.samples.emplace_back(extent.min_x() + n.min_x() * w,
                               extent.min_y() + n.min_y() * h,
                               extent.min_x() + n.max_x() * w,
                               extent.min_y() + n.max_y() * h);
    }
  }
  const std::uint32_t target_cells =
      core::effective_target_partitions(*gis.query, gis.exec->cluster);
  const partition::PartitionScheme scheme = partition::make_partitions(
      gis.query->partitioner, out.samples, data.extent(), target_cells);
  ctx.dfs->put(tag + ".partitions", std::any(), scheme.size_bytes());
  mapreduce::charge_master_step(ctx, tag + "/5-local-partition", master_cpu.seconds(),
                                /*read=*/lines_bytes(norm_lines),
                                /*write=*/scheme.size_bytes() + lines_bytes(norm_lines));

  // ---- Step 6: MR job assigning partition ids ------------------------------
  StreamingSpec assign;
  assign.name = tag + "/6-assign";
  assign.config = gis.streaming;
  // Shared across mapper tasks: records replicated to >1 cell by the
  // multi-assignment (boundary-straddling MBRs) — the same quantity the
  // other two systems report as partition.duplicated_records.
  auto dup_records = std::make_shared<std::atomic<std::uint64_t>>(0);
  const std::string assign_site = assign.name;
  assign.make_mapper = [&scheme, dup_records, quarantine,
                        assign_site](std::size_t) -> mapreduce::StreamingMapFn {
    auto cells = std::make_shared<const MapperCellIndex>(scheme);
    return [cells, dup_records, quarantine, assign_site](
               const std::string& line, std::vector<std::string>& emit) {
      std::string error;
      const auto f = workload::try_feature_from_tsv(line, &error);
      if (!f) {
        quarantine->divert(assign_site, line, error);
        return;
      }
      const std::vector<std::uint32_t> pids = cells->assign(f->geometry.envelope());
      if (!pids.empty()) {
        dup_records->fetch_add(pids.size() - 1, std::memory_order_relaxed);
      }
      for (const auto pid : pids) {
        emit.push_back("p" + std::to_string(pid) + "\t" + line);
      }
    };
  };
  assign.reduce = sort_unique;
  out.partitioned_lines = mapreduce::run_streaming(ctx, assign, converted);
  if (ctx.counters != nullptr) {
    ctx.counters->add("partition.duplicated_records",
                      dup_records->load(std::memory_order_relaxed));
  }
  return out;
}

/// Inputs of steps (b) and (c), built by the cold driver and kept resident
/// for serving: the partitioned line files of both preprocessing pipelines,
/// already chunked into the join job's splits (the chunking depends only on
/// the cluster's slot count, fixed per catalog entry), the joint partition
/// scheme and the occupancy bitmaps (absent when the shuffle filter is off).
struct GisJoinInputs {
  std::vector<std::vector<std::string>> splits;  // A chunks then B chunks
  std::size_t n_a = 0;
  std::optional<partition::PartitionScheme> joint_scheme;
  std::optional<core::SymmetricFilter> filters;
};

/// Step (b): the big distributed-join streaming job. Returns the pair lines
/// before dedup. `shared_cache`, when non-null, is a cross-query
/// geom::PreparedCache owned by the caller (the serving catalog); the
/// cache-hit counters always record only this run's delta.
std::vector<std::string> run_join_job(mapreduce::MrContext& ctx,
                                      const mapreduce::StreamingConfig& streaming,
                                      const core::JoinQueryConfig& query,
                                      const HadoopGisConfig& config,
                                      const GisJoinInputs& in,
                                      workload::RowQuarantine& quarantine_sink,
                                      geom::PreparedCache* shared_cache,
                                      core::RunReport& report) {
  // Inert under the default Simple (GEOS-analog) engine: run_local_join
  // consults the cache only for the Prepared engine, so the system's
  // measured per-call refinement cost is unchanged. Under the Simple engine
  // every refined candidate counts as an exact test.
  const core::LocalJoinScope local_join(query, kPaperAlgorithm, config.engine,
                                        shared_cache, &report.counters);
  const core::LocalJoinSpec& local_spec = local_join.spec();
  const double expand = query.envelope_expansion();

  // Shared across map tasks; run_streaming executes user code exactly once
  // per task, so retries never double-count (same pattern as dup_records).
  auto shuffle_assigned = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto shuffle_emitted = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto filtered_line_bytes = std::make_shared<std::atomic<std::uint64_t>>(0);

  StreamingSpec join_job;
  join_job.name = "join/b-distributed-join";
  join_job.config = streaming;
  workload::RowQuarantine* quarantine = &quarantine_sink;
  join_job.make_mapper = [&in, expand, quarantine, shuffle_assigned, shuffle_emitted,
                          filtered_line_bytes](std::size_t task)
      -> mapreduce::StreamingMapFn {
    const char side = task < in.n_a ? 'A' : 'B';
    // Each side drops against the *other* side's occupancy bitmap.
    const geom::OccupancyFilter* filt = nullptr;
    if (in.filters.has_value()) {
      filt = side == 'A' ? &in.filters->right_marks : &in.filters->left_marks;
    }
    auto cells = std::make_shared<const MapperCellIndex>(*in.joint_scheme);
    return [cells, side, expand, quarantine, filt, shuffle_assigned, shuffle_emitted,
            filtered_line_bytes](
               const std::string& line, std::vector<std::string>& emit) {
      // Input lines look like "p<pid>\t<id>\t<wkt>[\t<pad>]": the stale
      // pid is skipped, the record re-parsed, the joint index queried.
      std::string error;
      const auto parsed = workload::try_feature_from_tsv_at(line, 1, &error);
      if (!parsed) {
        quarantine->divert("join/b-distributed-join.map", line, error);
        return;
      }
      const geom::Feature& f = *parsed;
      // View, not substr: the emitted line is assembled below without an
      // intermediate copy of the record tail.
      const std::string_view rest = std::string_view(line).substr(line.find('\t') + 1);
      const geom::Envelope env = f.geometry.envelope().expanded_by(expand);
      std::vector<std::uint32_t> pids = cells->assign(env);
      if (filt != nullptr) {
        shuffle_assigned->fetch_add(pids.size(), std::memory_order_relaxed);
        // Drop tile copies with no occupied slot under the envelope: the
        // line is never built, never buffered, never crosses the pipe.
        std::size_t kept = 0;
        std::uint64_t dropped_bytes = 0;
        for (const auto pid : pids) {
          if (filt->may_match(pid, env)) {
            pids[kept++] = pid;
          } else {
            // Size of the "j<pid>\t<side>\t<rest>" line (+1 for the
            // newline the pipe accounting charges per emitted line).
            dropped_bytes += rest.size() + std::to_string(pid).size() + 5;
          }
        }
        if (dropped_bytes > 0) {
          filtered_line_bytes->fetch_add(dropped_bytes,
                                         std::memory_order_relaxed);
        }
        pids.resize(kept);
        shuffle_emitted->fetch_add(pids.size(), std::memory_order_relaxed);
      }
      for (const auto pid : pids) {
        std::string out;
        out.reserve(rest.size() + 16);
        out += 'j';
        out += std::to_string(pid);
        out += '\t';
        out += side;
        out += '\t';
        out += rest;
        emit.push_back(std::move(out));
      }
    };
  };
  // Query-owned scratch pool instead of a `static thread_local` scratch:
  // index trees and candidate buffers stay warm across the cells a reducer
  // thread processes but die with the query, so nothing survives onto the
  // pool threads a serving process keeps around (see core::ScratchPool).
  core::ScratchPool scratch_pool;
  join_job.reduce = [&local_spec, &scratch_pool, quarantine](
                        const std::vector<std::string>& lines,
                        std::vector<std::string>& emit) {
    // Lines arrive sorted, so partitions are contiguous and, within one,
    // side A sorts before side B.
    std::size_t i = 0;
    while (i < lines.size()) {
      const std::string_view key = mapreduce::streaming_key(lines[i]);
      std::vector<geom::Feature> left_features;
      std::vector<geom::Feature> right_features;
      for (; i < lines.size() && mapreduce::streaming_key(lines[i]) == key; ++i) {
        const std::string& line = lines[i];
        std::string error;
        auto f = workload::try_feature_from_tsv_at(line, 2, &error);
        if (!f) {
          quarantine->divert("join/b-distributed-join.reduce", line, error);
          continue;
        }
        // "j<pid>\t<side>\t<record>": the side tag follows the first tab.
        const char side = line[line.find('\t') + 1];
        (side == 'A' ? left_features : right_features).push_back(std::move(*f));
      }
      std::vector<JoinPair> pairs;
      auto scratch = scratch_pool.acquire();
      core::run_local_join(std::span<const geom::Feature>(left_features),
                           std::span<const geom::Feature>(right_features), local_spec,
                           core::AcceptAllPairs{}, *scratch, pairs);
      for (const auto& p : pairs) {
        emit.push_back(std::to_string(p.left_id) + "\t" + std::to_string(p.right_id));
      }
    }
  };
  auto pair_lines = mapreduce::run_streaming(ctx, join_job, in.splits);
  if (in.filters.has_value()) {
    const std::uint64_t assigned = shuffle_assigned->load(std::memory_order_relaxed);
    const std::uint64_t emitted = shuffle_emitted->load(std::memory_order_relaxed);
    report.counters.add("shuffle.assigned_records", assigned);
    report.counters.add("shuffle.records", emitted);
    report.counters.add("shuffle.filtered_records", assigned - emitted);
    report.counters.add("shuffle.filtered_bytes",
                        filtered_line_bytes->load(std::memory_order_relaxed));
  }
  report.counters.add("join.pair_lines_before_dedup", pair_lines.size());
  return pair_lines;
}

/// Steps (b) and (c) of the HadoopGIS join — the distributed-join job and
/// the sort-unique dedup job — shared verbatim by the cold batch driver and
/// the resident serving path: given the same inputs both produce
/// bit-identical pair sets and identical shuffle.* / refine.* / join.*
/// counters.
std::vector<JoinPair> run_gis_join(mapreduce::MrContext& ctx,
                                   const mapreduce::StreamingConfig& streaming,
                                   const core::JoinQueryConfig& query,
                                   const core::ExecutionConfig& exec,
                                   const HadoopGisConfig& config,
                                   const GisJoinInputs& in,
                                   workload::RowQuarantine& quarantine_sink,
                                   geom::PreparedCache* shared_cache,
                                   core::RunReport& report) {
  const auto pair_lines = run_join_job(ctx, streaming, query, config, in,
                                       quarantine_sink, shared_cache, report);

  // ---- Step (c): sort-unique dedup job ------------------------------------
  StreamingSpec dedup;
  dedup.name = "join/c-dedup";
  dedup.config = streaming;
  dedup.map = pass_through;
  dedup.reduce = sort_unique;
  const auto final_lines = mapreduce::run_streaming(
      ctx, dedup, chunk_lines(pair_lines, exec.cluster.total_slots()));

  report.counters.add("join.pair_lines_after_dedup", final_lines.size());
  std::vector<JoinPair> pairs;
  pairs.reserve(final_lines.size());
  std::vector<std::string_view> fields;  // master-side reuse, one per loop
  for (const auto& line : final_lines) {
    split_into(line, '\t', fields);
    pairs.push_back({parse_u64(fields.at(0)), parse_u64(fields.at(1))});
  }
  return pairs;
}

mapreduce::StreamingConfig make_streaming_config(const core::ExecutionConfig& exec,
                                                 const HadoopGisConfig& config) {
  mapreduce::StreamingConfig streaming;
  streaming.mr = config.mr;
  streaming.pipe_bandwidth = config.pipe_bandwidth;
  streaming.pipe_capacity_bytes = static_cast<std::uint64_t>(
      config.pipe_capacity_fraction *
      static_cast<double>(exec.cluster.node.memory_bytes) / exec.cluster.node.cores *
      (exec.cluster.node_count > 1 ? config.multi_node_pipe_derating : 1.0));
  return streaming;
}

}  // namespace

/// Everything the serving layer keeps resident between queries for one
/// dataset pair: the shared resident contract plus the join job's inputs.
struct HadoopGisResident::Impl : core::ResidentBase {
  GisJoinInputs join;
};

namespace {

core::RunReport run_hadoop_gis_impl(const workload::Dataset& left,
                                    const workload::Dataset& right,
                                    const core::JoinQueryConfig& query,
                                    const core::ExecutionConfig& exec,
                                    const HadoopGisConfig& config,
                                    HadoopGisResident::Impl* capture) {
  // Two sinks so the ingest share of the quarantine counters can be captured
  // for resident replay; a cold run's totals are the sum of both.
  workload::RowQuarantine build_quarantine;
  workload::RowQuarantine join_quarantine;
  // Preprocessing counts into its own sink, folded into the run's counters
  // by the epilogue — totals are unchanged for a cold run (failed or not),
  // and a resident build keeps the ingest share for replay.
  cluster::Counters ingest_counters;

  const auto body = [&](core::RunReport& report, trace::TraceCollector* trace) {
    // Fault-plan validation (FaultInjector's constructor) and DFS setup can
    // throw on a bad plan: inside the body so a chaos-generated invalid plan
    // reports a structured Status instead of escaping the driver.
    dfs::SimDfs dfs(core::dfs_config(query, exec));
    const cluster::FaultInjector faults(config.faults);
    mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &ingest_counters, &faults};
    ctx.trace = trace;

    const mapreduce::StreamingConfig streaming = make_streaming_config(exec, config);

    GisContext gis{&ctx, streaming, &query, &exec, &config, &build_quarantine};

    // ---- Preprocessing (IA, IB) --------------------------------------------
    PreprocessedDataset pa = preprocess(gis, left, "A");
    PreprocessedDataset pb = preprocess(gis, right, "B");

    // ---- Global join step (a): joint partitions built locally --------------
    // The per-dataset partition ids cannot be reused (invisible through
    // streaming), so the samples are concatenated and re-partitioned on the
    // master — with the HDFS copy round-trips charged.
    CpuStopwatch master_cpu;
    std::vector<geom::Envelope> joint_samples = pa.samples;
    joint_samples.insert(joint_samples.end(), pb.samples.begin(), pb.samples.end());
    geom::Envelope joint_extent = left.extent();
    joint_extent.expand_to_include(right.extent());
    const std::uint32_t target_cells =
        core::effective_target_partitions(query, exec.cluster);
    partition::PartitionScheme joint_scheme = partition::make_partitions(
        query.partitioner, joint_samples, joint_extent, target_cells);
    dfs.put("join.partitions", std::any(), joint_scheme.size_bytes());
    mapreduce::charge_master_step(ctx, "join/a-joint-partition", master_cpu.seconds(),
                                  pa.sample_text_bytes + pb.sample_text_bytes,
                                  joint_scheme.size_bytes());

    // ---- Global+local join step (b) inputs ---------------------------------
    GisJoinInputs in;
    const std::size_t slots = exec.cluster.total_slots();
    in.splits = chunk_lines(std::move(pa.partitioned_lines), slots);
    in.n_a = in.splits.size();
    for (auto& s : chunk_lines(std::move(pb.partitioned_lines), slots)) {
      in.splits.push_back(std::move(s));
    }

    const double expand = query.envelope_expansion();

    // ---- Global join step (a1): optional skew-aware tile refinement ---------
    // Probe the per-tile load the join mappers below would push through the
    // streaming pipes (the same expanded-envelope assignment over both
    // datasets, tallied instead of emitted), split hotspot tiles on the
    // master, and rewrite the partition file — the filter bitmaps and the
    // join job then see the refined tile set.
    if (config.policy.repartition) {
      CpuStopwatch skew_cpu;
      const auto probe = [&](const partition::PartitionScheme& s) {
        std::vector<plan::CellLoad> loads(s.cell_count());
        for (const workload::Dataset* data : {&left, &right}) {
          plan::tally_cell_loads(
              s, expand, data->envelopes(),
              [data](std::size_t i) { return 4 + data->record_text_bytes(i); }, loads);
        }
        return loads;
      };
      const std::uint64_t before_bytes = joint_scheme.size_bytes();
      plan::refine_in_place(joint_scheme, query.partitioner, config.policy.skew, probe,
                            ctx.counters);
      dfs.put("join.partitions", std::any(), joint_scheme.size_bytes());
      mapreduce::charge_master_step(ctx, "join/a1-skew-refine", skew_cpu.seconds(),
                                    before_bytes, joint_scheme.size_bytes());
    }

    // ---- Global join step (a2): optional shuffle filter ---------------------
    // LocationSpark's sFilter analog: a master-side pass over each dataset
    // replays the join mapper's assignment (query + nearest-cell fallback)
    // and marks each record's expanded envelope into its tiles' occupancy
    // bitmaps. The scheme is joint, so filtering is symmetric: A-side
    // mappers drop tile line copies the B bitmap proves can match no B
    // geometry in that tile, and B-side mappers drop against the A bitmap —
    // before the line is pushed through the streaming pipe. Both bitmaps
    // ship to every mapper via the distributed cache.
    if (config.policy.shuffle_filter) {
      CpuStopwatch filter_cpu;
      in.filters = core::build_symmetric_filter(joint_scheme, expand, left.envelopes(),
                                                right.envelopes());
      dfs.put("join.sfilter", std::any(), in.filters->size_bytes());
      mapreduce::charge_master_step(ctx, "join/a2-filter-build", filter_cpu.seconds(),
                                    left.text_bytes() + right.text_bytes(),
                                    in.filters->size_bytes());
    }
    in.joint_scheme.emplace(std::move(joint_scheme));

    // Preprocessing is done: the join jobs count into the run's counters.
    ctx.counters = &report.counters;
    if (capture != nullptr) capture->join = in;
    // ---- Steps (b) + (c): join + dedup streaming jobs -----------------------
    core::record_result(report,
                        run_gis_join(ctx, streaming, query, exec, config, in,
                                     join_quarantine, /*shared_cache=*/nullptr, report),
                        exec);
  };
  // BrokenPipe (pipe overflow past the retry budget), TaskFailed (injected
  // crash exhausting attempts), BlockUnavailable (all replicas of an input
  // lost), DeadlineExceeded / RetryBudgetExhausted (lifecycle enforcement)
  // and InvalidArgument (a bad fault plan) all end as a structured Status;
  // a failed run still reports the IA/IB/DJ its finished phases took.
  return core::run_reported(exec, body, [&](core::RunReport& report) {
    build_quarantine.flush_counters(ingest_counters);
    report.counters.merge(ingest_counters);
    if (capture != nullptr) capture->ingest_counters = ingest_counters;
    join_quarantine.flush_counters(report.counters);
    core::record_breakdown(report);
  });
}

}  // namespace

core::RunReport run_hadoop_gis(const workload::Dataset& left,
                               const workload::Dataset& right,
                               const core::JoinQueryConfig& query,
                               const core::ExecutionConfig& exec,
                               const HadoopGisConfig& config) {
  return run_hadoop_gis_impl(left, right, query, exec, config, /*capture=*/nullptr);
}

const core::RunReport& HadoopGisResident::build_report() const {
  return core::require_built(impl_, "HadoopGisResident").build_report;
}

HadoopGisResident hadoop_gis_build_resident(const workload::Dataset& left,
                                            const workload::Dataset& right,
                                            const core::JoinQueryConfig& query,
                                            const core::ExecutionConfig& exec,
                                            const HadoopGisConfig& config) {
  auto impl = std::make_shared<HadoopGisResident::Impl>();
  impl->build(query, "hadoop_gis_build_resident", [&] {
    return run_hadoop_gis_impl(left, right, query, exec, config, impl.get());
  });
  HadoopGisResident resident;
  resident.impl_ = std::move(impl);
  return resident;
}

core::RunReport run_hadoop_gis_resident(const HadoopGisResident& resident,
                                        const core::JoinQueryConfig& query,
                                        const core::ExecutionConfig& exec,
                                        const HadoopGisConfig& config,
                                        geom::PreparedCache* shared_cache) {
  const HadoopGisResident::Impl& impl =
      core::require_built(resident.impl_, "run_hadoop_gis_resident");
  workload::RowQuarantine join_quarantine;
  const auto body = [&](core::RunReport& report, trace::TraceCollector* trace) {
    impl.begin_query(query, "run_hadoop_gis_resident", report);
    // Fresh runtime per query — a serving process answers each query on its
    // own simulated job, like the indexed SpatialHadoop path. The
    // preprocessing products (partition scheme, bitmaps, partitioned lines)
    // come from the catalog; no A/ or B/ phase runs, so IA/IB report as 0.
    dfs::SimDfs dfs(core::dfs_config(query, exec));
    mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &report.counters};
    ctx.trace = trace;
    core::record_result(report,
                        run_gis_join(ctx, make_streaming_config(exec, config), query,
                                     exec, config, impl.join, join_quarantine,
                                     shared_cache, report),
                        exec);
  };
  return core::run_reported(exec, body, [&](core::RunReport& report) {
    join_quarantine.flush_counters(report.counters);
    core::record_breakdown(report);
  });
}

}  // namespace sjc::systems
