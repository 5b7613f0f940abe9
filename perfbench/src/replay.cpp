#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "core/local_join.hpp"
#include "geom/batch_refine.hpp"
#include "geom/occupancy.hpp"
#include "index/mbr_join.hpp"
#include "index/nearest.hpp"
#include "index/str_tree.hpp"
#include "partition/partitioner.hpp"
#include "partition/sampler.hpp"
#include "plan/cost_model.hpp"
#include "plan/partition_refiner.hpp"
#include "util/rng.hpp"
#include "workload/tsv.hpp"

namespace perfbench {

namespace {

using sjc::geom::Envelope;
using sjc::geom::Feature;
using sjc::index::IndexEntry;

constexpr std::uint64_t kReplayId = 1u << 30;  // span id shared by the replay's spans
constexpr std::size_t kSimpleStride = 16;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One partition cell's share of both inputs.
struct Cell {
  std::vector<Feature> left, right;
  std::vector<IndexEntry> left_entries, right_entries;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> candidates;  // (left, right)
};

}  // namespace

std::map<std::string, double> replay_layers(const Dataset& left, const Dataset& right,
                                            JoinPredicate predicate, std::uint64_t seed,
                                            SpanLog& log, int parent, OracleAnswer& joined_pairs) {
  std::map<std::string, double> m;
  const int root = log.open("replay", kReplayId, parent);
  const auto span = [&](const char* name) { return log.open(name, kReplayId, root); };

  // workload: the streaming text plane's parse of both inputs.
  {
    std::vector<std::string> lines = sjc::workload::dataset_to_tsv(left);
    const auto right_lines = sjc::workload::dataset_to_tsv(right);
    lines.insert(lines.end(), right_lines.begin(), right_lines.end());
    double bytes = 0.0;
    std::size_t parsed = 0;
    const int s = span("workload.tsv_parse");
    for (const auto& line : lines) {
      bytes += static_cast<double>(line.size());
      parsed += sjc::workload::try_feature_from_tsv(line).has_value() ? 1 : 0;
    }
    log.close(s);
    sjc::require(parsed == lines.size(), "replay: TSV round trip lost records");
    m["workload.tsv_parse_s"] = log.duration(s);
    m["workload.tsv_bytes"] = bytes;
  }

  // partition: sample, then build the scheme (EC2-10's cell target).
  const auto cluster = sjc::cluster::ClusterSpec::ec2(10);
  sjc::core::JoinQueryConfig query;
  query.predicate = predicate;
  const std::uint32_t target = sjc::core::effective_target_partitions(query, cluster);
  Envelope extent = left.extent();
  extent.expand_to_include(right.extent());
  std::unique_ptr<sjc::partition::PartitionScheme> scheme;
  {
    const int s = span("partition.build");
    sjc::Rng rng(seed);
    const double rate = sjc::core::effective_sample_rate(query.sample_rate, left.size(), target);
    const auto picked = sjc::partition::bernoulli_sample(left.size(), rate, rng);
    const auto sample = sjc::partition::gather_envelopes(left.envelopes(), picked);
    scheme = std::make_unique<sjc::partition::PartitionScheme>(
        sjc::partition::make_partitions(query.partitioner, sample, extent, target));
    log.close(s);
    m["partition.build_s"] = log.duration(s);
  }
  const std::size_t ncells = scheme->cell_count();
  std::vector<Cell> cells(ncells);
  std::vector<std::uint32_t> out;

  // geom (filter): occupancy bitmaps of the right side's assignments.
  sjc::geom::OccupancyFilter filter(scheme->cells());
  {
    const int s = span("geom.filter_build");
    for (const auto& env : right.envelopes()) {
      scheme->assign_into(env, out);
      for (const auto c : out) filter.mark(c, env);
    }
    log.close(s);
    m["geom.filter_build_s"] = log.duration(s);
  }

  // partition: assignment, unfiltered (both sides) and filtered (left).
  double assigned = 0.0;
  double left_unfiltered = 0.0;
  double dropped = 0.0;
  {
    const int s = span("partition.assign");
    for (std::uint32_t i = 0; i < right.size(); ++i) {
      scheme->assign_into(right.envelopes()[i], out);
      assigned += static_cast<double>(out.size());
      for (const auto c : out) cells[c].right.push_back(right.features()[i]);
    }
    for (const auto& env : left.envelopes()) {
      scheme->assign_into(env, out);
      left_unfiltered += static_cast<double>(out.size());
    }
    for (std::uint32_t i = 0; i < left.size(); ++i) {
      dropped += scheme->assign_into(left.envelopes()[i], filter, out);
      for (const auto c : out) cells[c].left.push_back(left.features()[i]);
    }
    log.close(s);
    assigned += left_unfiltered;
    m["partition.assign_s"] = log.duration(s);
    m["partition.assign_calls"] = static_cast<double>(right.size() + 2 * left.size());
    m["partition.replication"] = ratio(assigned, static_cast<double>(left.size() + right.size()));
    m["geom.filter_drop_ratio"] = ratio(dropped, left_unfiltered);
  }

  // plan: skew detection + refinement over the left side's cell loads,
  // then the broadcast-vs-partitioned choice.
  {
    const int s = span("plan.skew");
    sjc::plan::PartitionRefiner refiner(query.partitioner);
    const auto result = refiner.refine(*scheme, [&](const sjc::partition::PartitionScheme& sch) {
      std::vector<sjc::plan::CellLoad> probe(sch.cell_count());
      std::vector<std::uint32_t> hit;
      for (const auto& env : left.envelopes()) {
        sch.assign_into(env, hit);
        for (const auto c : hit) ++probe[c].records;
      }
      return probe;
    });
    log.close(s);
    m["plan.skew_s"] = log.duration(s);
    m["plan.splits"] = static_cast<double>(result.splits);
  }
  {
    sjc::plan::PlanInputs inputs;
    inputs.left_records = left.size();
    inputs.right_records = right.size();
    inputs.left_bytes = left.text_bytes();
    inputs.right_bytes = right.text_bytes();
    inputs.cluster = cluster;
    inputs.data_scale = 1.0 / kBatchScale;
    const int s = span("plan.choose");
    const auto decision = sjc::plan::choose_plan(inputs);
    log.close(s);
    (void)decision;
    m["plan.choose_s"] = log.duration(s);
  }

  // index: per-cell STR build, then the MBR filter join.
  for (auto& cell : cells) {
    for (std::uint32_t i = 0; i < cell.left.size(); ++i) {
      cell.left_entries.push_back({cell.left[i].geometry.envelope(), i});
    }
    for (std::uint32_t i = 0; i < cell.right.size(); ++i) {
      cell.right_entries.push_back({cell.right[i].geometry.envelope(), i});
    }
  }
  {
    const int s = span("index.str_build");
    std::size_t nodes = 0;
    for (const auto& cell : cells) {
      if (cell.left.empty() || cell.right.empty()) continue;
      const sjc::index::StrTree tree(cell.right_entries);
      nodes += tree.size();
    }
    log.close(s);
    sjc::require(nodes > 0, "replay: no cell holds both sides");
    m["index.str_build_s"] = log.duration(s);
  }
  double candidates = 0.0;
  {
    sjc::index::MbrJoinScratch scratch;
    const int s = span("index.mbr_join");
    for (auto& cell : cells) {
      if (cell.left.empty() || cell.right.empty()) continue;
      auto& cand = cell.candidates;
      sjc::index::local_mbr_join(sjc::index::LocalJoinAlgorithm::kIndexedNestedLoop,
                                 cell.left_entries, cell.right_entries, scratch,
                                 [&cand](std::uint32_t l, std::uint32_t r) {
                                   cand.emplace_back(l, r);
                                 });
      candidates += static_cast<double>(cand.size());
    }
    log.close(s);
    m["index.mbr_join_s"] = log.duration(s);
    m["index.candidates"] = candidates;
  }

  // core: the whole local join per cell, reference-point dedup included.
  std::vector<sjc::core::JoinPair> joined;
  {
    sjc::core::LocalJoinSpec spec;
    spec.algorithm = sjc::index::LocalJoinAlgorithm::kPlaneSweep;
    spec.predicate = predicate;
    sjc::core::LocalJoinScratch scratch;
    double calls = 0.0;
    const int s = span("core.local_join");
    for (std::uint32_t c = 0; c < ncells; ++c) {
      const Cell& cell = cells[c];
      if (cell.left.empty() || cell.right.empty()) continue;
      const auto accept = [&](const Envelope& l, const Envelope& r) {
        const auto p = sjc::core::reference_point(l, r);
        return scheme->min_assigned(Envelope::of_point(p.x, p.y)) == c;
      };
      sjc::core::run_local_join(std::span<const Feature>(cell.left),
                                std::span<const Feature>(cell.right), spec, accept, scratch,
                                joined);
      ++calls;
    }
    log.close(s);
    m["core.local_join_s"] = log.duration(s);
    m["core.local_join_calls"] = calls;
  }

  // geom (refine): prepared bind + BatchRefiner per right feature with
  // candidates, then refinement of every candidate; the Simple engine
  // over the same candidates.
  {
    std::vector<std::vector<std::unique_ptr<sjc::geom::BatchRefiner>>> refiners(ncells);
    const int bind = span("geom.bind");
    for (std::uint32_t c = 0; c < ncells; ++c) {
      const Cell& cell = cells[c];
      refiners[c].resize(cell.right.size());
      for (const auto& [l, r] : cell.candidates) {
        if (refiners[c][r] == nullptr) {
          // The prepared bind a per-pair refinement would use, then the
          // batch refiner the systems use.
          const auto bound = sjc::geom::GeometryEngine::prepared().bind(cell.right[r].geometry);
          refiners[c][r] = std::make_unique<sjc::geom::BatchRefiner>(cell.right[r].geometry);
        }
      }
    }
    log.close(bind);
    m["geom.bind_s"] = log.duration(bind);

    sjc::geom::RefineStats stats;
    std::vector<std::uint8_t> prepared_hits;  // per candidate, in cell order
    std::vector<sjc::geom::Coord> point;
    std::vector<std::uint8_t> covered;
    const int refine = span("geom.refine");
    for (std::uint32_t c = 0; c < ncells; ++c) {
      const Cell& cell = cells[c];
      for (const auto& [l, r] : cell.candidates) {
        const auto& refiner = *refiners[c][r];
        const auto& probe = cell.left[l].geometry;
        bool hit = false;
        if (refiner.has_areal() && probe.type() == sjc::geom::GeomType::kPoint) {
          point.assign(1, probe.as_point());
          refiner.covers_points(point, covered, stats);
          hit = covered[0] != 0;
        } else if (predicate == JoinPredicate::kWithin) {
          hit = refiner.contains(probe, stats);
        } else {
          hit = refiner.intersects(probe, stats);
        }
        prepared_hits.push_back(hit ? 1 : 0);
      }
    }
    log.close(refine);
    double hits = 0.0;
    for (const auto h : prepared_hits) hits += h;
    m["geom.refine_s"] = log.duration(refine);
    m["geom.exact_tests"] = static_cast<double>(stats.exact_tests);
    m["geom.early_decided_ratio"] = ratio(static_cast<double>(stats.early_accepts + stats.early_rejects),
                                          static_cast<double>(stats.total()));
    m["index.mbr_precision"] = ratio(hits, candidates);

    // The Simple engine is slow enough on linework to dominate the replay:
    // it refines every kSimpleStride-th candidate.
    std::size_t k = 0;
    std::size_t disagree = 0;
    const int simple = span("geom.simple_refine");
    for (const Cell& cell : cells) {
      for (const auto& [l, r] : cell.candidates) {
        if (k % kSimpleStride == 0) {
          const bool hit = sjc::core::evaluate_predicate(sjc::geom::GeometryEngine::simple(),
                                                         predicate, 0.0, cell.left[l].geometry,
                                                         cell.right[r].geometry);
          disagree += hit != (prepared_hits[k] != 0) ? 1 : 0;
        }
        ++k;
      }
    }
    log.close(simple);
    sjc::require(disagree == 0, "replay: Simple and Prepared engines disagree");
    m["geom.simple_refine_s"] = log.duration(simple);
  }

  // partition (dedup): the reference-point cell of every joined pair.
  {
    const auto& lenv = left.envelopes();
    const auto& renv = right.envelopes();
    // Joined pairs carry feature ids; map them back to record indexes.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> lpos, rpos;
    for (std::uint32_t i = 0; i < left.size(); ++i) lpos.emplace_back(left.features()[i].id, i);
    for (std::uint32_t i = 0; i < right.size(); ++i) rpos.emplace_back(right.features()[i].id, i);
    std::sort(lpos.begin(), lpos.end());
    std::sort(rpos.begin(), rpos.end());
    const auto index_of = [](const auto& pos, std::uint64_t id) {
      return std::lower_bound(pos.begin(), pos.end(), std::make_pair(id, 0u))->second;
    };
    std::vector<Envelope> refs;
    refs.reserve(joined.size());
    for (const auto& p : joined) {
      const auto pt = sjc::core::reference_point(lenv[index_of(lpos, p.left_id)],
                                                 renv[index_of(rpos, p.right_id)]);
      refs.push_back(Envelope::of_point(pt.x, pt.y));
    }
    const int s = span("partition.dedup");
    for (const auto& ref : refs) scheme->min_assigned(ref);
    log.close(s);
    m["partition.dedup_s"] = log.duration(s);
    m["partition.min_assigned_calls"] = static_cast<double>(refs.size());
  }

  // index: single range and k-NN lookups on an STR tree over the left side.
  {
    std::vector<IndexEntry> entries;
    for (std::uint32_t i = 0; i < left.size(); ++i) entries.push_back({left.envelopes()[i], i});
    const sjc::index::StrTree tree(std::move(entries));
    sjc::Rng rng(seed ^ 0x100cULL);
    std::vector<double> range_us, knn_us;
    std::size_t found = 0;
    const int s = span("index.lookups");
    for (int q = 0; q < 2000; ++q) {
      const double cx = rng.uniform(extent.min_x(), extent.max_x());
      const double cy = rng.uniform(extent.min_y(), extent.max_y());
      const double hw = extent.width() * 0.005;
      const double hh = extent.height() * 0.005;
      const auto t0 = Clock::now();
      tree.query(Envelope(cx - hw, cy - hh, cx + hw, cy + hh),
                 [&found](std::uint32_t) { ++found; });
      const auto t1 = Clock::now();
      found += sjc::index::k_nearest_envelopes(tree, Envelope::of_point(cx, cy), 8).size();
      const auto t2 = Clock::now();
      range_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      knn_us.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
    log.close(s);
    m["index.range_us.p50"] = median(range_us);
    m["index.knn_us.p50"] = median(knn_us);
  }
  log.close(root);
  joined_pairs = {joined.size(), sjc::core::hash_pairs_unordered(joined)};
  return m;
}

}  // namespace perfbench
