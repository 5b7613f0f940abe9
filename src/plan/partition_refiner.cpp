#include "plan/partition_refiner.hpp"

#include <numeric>

namespace sjc::plan {

std::vector<geom::Envelope> PartitionRefiner::split_cell(
    const geom::Envelope& cell, partition::PartitionerKind kind) {
  const double mx = 0.5 * (cell.min_x() + cell.max_x());
  const double my = 0.5 * (cell.min_y() + cell.max_y());
  // A midpoint equal to an edge means the axis is degenerate (zero width at
  // double precision) — splitting there would mint empty duplicate cells.
  const bool split_x = mx > cell.min_x() && mx < cell.max_x();
  const bool split_y = my > cell.min_y() && my < cell.max_y();
  if (!split_x && !split_y) return {cell};

  const bool grid_family = kind == partition::PartitionerKind::kFixedGrid ||
                           kind == partition::PartitionerKind::kQuadtree;
  if (grid_family && split_x && split_y) {
    // Quad-split at the midpoint, quadrant order SW, SE, NW, NE.
    return {
        {cell.min_x(), cell.min_y(), mx, my},
        {mx, cell.min_y(), cell.max_x(), my},
        {cell.min_x(), my, mx, cell.max_y()},
        {mx, my, cell.max_x(), cell.max_y()},
    };
  }
  // Node-split for the tree-family schemes (and the degenerate-axis grid
  // case): halve the longer splittable axis.
  const bool along_x =
      split_x && (!split_y || cell.width() >= cell.height());
  if (along_x) {
    return {{cell.min_x(), cell.min_y(), mx, cell.max_y()},
            {mx, cell.min_y(), cell.max_x(), cell.max_y()}};
  }
  return {{cell.min_x(), cell.min_y(), cell.max_x(), my},
          {cell.min_x(), my, cell.max_x(), cell.max_y()}};
}

RefineResult PartitionRefiner::refine(const partition::PartitionScheme& scheme,
                                      const LoadProbe& probe) const {
  RefineResult result{scheme, {}, 0, 0, 0, 0};
  result.parent.resize(scheme.cell_count());
  std::iota(result.parent.begin(), result.parent.end(), 0u);

  for (std::uint32_t round = 0; round < monitor_.policy().max_rounds; ++round) {
    std::vector<CellLoad> loads = probe(result.scheme);
    ++result.rounds;
    const HotspotReport report = monitor_.analyze(loads);
    if (report.hot_cells.empty()) break;

    std::vector<geom::Envelope> cells = result.scheme.cells();
    std::vector<std::uint32_t> parent = result.parent;
    std::uint64_t split_count = 0;
    for (const std::uint32_t hot : report.hot_cells) {
      const auto children = split_cell(cells[hot], kind_);
      if (children.size() < 2) continue;  // degenerate cell, nothing to split
      ++split_count;
      result.migrated_records += loads[hot].records;
      result.migrated_bytes += loads[hot].bytes;
      // First child takes the parent's id slot (unsplit cells keep their
      // ids); the rest append. `parent` always maps back to the original
      // pre-refinement id, across rounds.
      const std::uint32_t origin = parent[hot];
      cells[hot] = children[0];
      for (std::size_t c = 1; c < children.size(); ++c) {
        cells.push_back(children[c]);
        parent.push_back(origin);
      }
    }
    if (split_count == 0) break;
    result.splits += split_count;
    result.scheme =
        partition::PartitionScheme(std::move(cells), result.scheme.extent());
    result.parent = std::move(parent);
  }
  return result;
}

void record_repartition_counters(const RefineResult& result,
                                 cluster::Counters& counters) {
  counters.add("repartition.rounds", result.rounds);
  counters.add("repartition.splits", result.splits);
  counters.add("repartition.cells", result.scheme.cell_count());
  counters.add("repartition.migrated_records", result.migrated_records);
  counters.add("repartition.migrated_bytes", result.migrated_bytes);
}

void refine_in_place(partition::PartitionScheme& scheme, partition::PartitionerKind kind,
                     const SkewPolicy& policy, const LoadProbe& probe,
                     cluster::Counters* counters) {
  RefineResult refined = PartitionRefiner(kind, policy).refine(scheme, probe);
  if (counters != nullptr) record_repartition_counters(refined, *counters);
  scheme = std::move(refined.scheme);
}

}  // namespace sjc::plan
