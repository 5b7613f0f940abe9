// PartitionRefiner: split hotspot partition cells before the shuffle.
//
// Refinement runs between scheme derivation (sample -> make_partitions) and
// record assignment: a load probe counts per-cell record/byte load under
// the candidate scheme, the SkewMonitor flags hotspots, and each flagged
// cell is replaced by its children — a quad-split at the cell midpoint for
// the grid-family schemes (FixedGrid, Quadtree) or a longest-axis binary
// node-split for the tree-family schemes (STR, BSP). Children tile the
// parent exactly, so the refined cell set covers the extent whenever the
// input did.
//
// Split soundness (why survivor pair sets are bit-identical, DESIGN.md §7):
// a record is assigned to every cell its expanded envelope intersects, and
// a surviving pair is emitted only in the canonical cell containing its
// reference point. Children tile the parent, so for any point p the set of
// cells containing p under the refined scheme is derived from the base set
// by replacing each split cell with the one child holding p — never empty,
// never gaining or losing coverage. Both members of a true pair intersect
// their reference point, hence are both assigned to whichever cell contains
// it, and the pair is tested (and accepted exactly once) there — the same
// argument that already carries pair-set identity across the four base
// partitioners. The accept filter runs before refinement in run_local_join,
// so refine.* counters (accept-deduped candidates) are scheme-independent
// and stay bit-identical too.
#pragma once

#include <functional>
#include <vector>

#include "cluster/counters.hpp"
#include "partition/partitioner.hpp"
#include "plan/skew_monitor.hpp"

namespace sjc::plan {

struct RefineResult {
  partition::PartitionScheme scheme;
  /// Refined cell id -> pre-refinement cell id. Identity for unsplit cells
  /// (the first child keeps the parent's id slot; later children append).
  std::vector<std::uint32_t> parent;
  /// Probe/split rounds executed (>= 1 whenever refinement ran; the footer
  /// and the repartition.* counter block key off this being non-zero).
  std::uint64_t rounds = 0;
  /// Cells split (each flagged cell that produced >= 2 children counts 1).
  std::uint64_t splits = 0;
  /// Record copies resident in cells at the moment those cells were split —
  /// the shuffle-bucket load the refinement re-routed.
  std::uint64_t migrated_records = 0;
  std::uint64_t migrated_bytes = 0;

  bool changed() const { return splits > 0; }
};

/// Per-cell loads of a candidate scheme — the same assignment pass the
/// shuffle itself performs, tallied instead of emitted. Called once per
/// refinement round (children of split cells need fresh loads).
using LoadProbe =
    std::function<std::vector<CellLoad>(const partition::PartitionScheme&)>;

class PartitionRefiner {
 public:
  PartitionRefiner(partition::PartitionerKind kind, SkewPolicy policy = {})
      : kind_(kind), monitor_(policy) {}

  /// Probe -> flag -> split, up to SkewPolicy::max_rounds rounds, stopping
  /// early when a round flags nothing. The returned scheme keeps the input
  /// extent; unsplit cells keep their ids.
  RefineResult refine(const partition::PartitionScheme& scheme,
                      const LoadProbe& probe) const;

  /// Children of one cell: quadrants at the midpoint for grid schemes,
  /// longest-axis halves for STR/BSP. Degenerate axes are not split; a cell
  /// degenerate on both axes returns itself unchanged.
  static std::vector<geom::Envelope> split_cell(const geom::Envelope& cell,
                                                partition::PartitionerKind kind);

 private:
  partition::PartitionerKind kind_;
  SkewMonitor monitor_;
};

/// Emits the repartition.* counter block (rounds/hot_cells/splits/cells/
/// migrated_records/migrated_bytes) read back by the trace footer.
void record_repartition_counters(const RefineResult& result,
                                 cluster::Counters& counters);

/// The drivers' refinement step: replaces `scheme` by its refinement under
/// PartitionRefiner(kind, policy) and records the repartition.* block into
/// `counters` when non-null (from the result, before its scheme moves out).
void refine_in_place(partition::PartitionScheme& scheme, partition::PartitionerKind kind,
                     const SkewPolicy& policy, const LoadProbe& probe,
                     cluster::Counters* counters);

/// Adds one side's load to `loads` — the body of every driver's LoadProbe.
/// Each record's envelope, expanded by `expand`, is assigned under `scheme`
/// exactly as the shuffle assigns it, and `bytes_of(i)` (the system's own
/// modeled shuffle bytes for the i-th record) is tallied into every
/// assigned cell.
template <class Envelopes, class BytesOf>
void tally_cell_loads(const partition::PartitionScheme& scheme, double expand,
                      const Envelopes& envelopes, BytesOf&& bytes_of,
                      std::vector<CellLoad>& loads) {
  std::vector<std::uint32_t> pids;
  std::size_t i = 0;
  for (const geom::Envelope& env : envelopes) {
    scheme.assign_into(env.expanded_by(expand), pids);
    const std::uint64_t bytes = bytes_of(i++);
    for (const auto pid : pids) {
      ++loads[pid].records;
      loads[pid].bytes += bytes;
    }
  }
}

}  // namespace sjc::plan
