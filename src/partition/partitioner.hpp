// Spatial partitioners: sample MBRs in, partition cells out.
//
// The preprocessing stage of every system (Section II.A) boils down to:
// sample the input, derive a set of partition cells from the sample, then
// assign every data item to the cell(s) its MBR intersects. Three cell
// derivation strategies are provided, mirroring the SATO/SpatialHadoop
// partitioning families the paper references:
//
//  * FixedGrid  — uniform cols x rows tiling of the extent (SpatialHadoop's
//                 default grid index);
//  * Str        — Sort-Tile-Recursive tiles of the sample (balanced counts
//                 under skew; SpatialHadoop's STR mode);
//  * Bsp        — recursive median binary splits (SATO-style, exact tiling
//                 of the extent with balanced sample counts).
//
// A PartitionScheme assigns an item to *every* cell its MBR intersects
// (multi-assignment duplication, deduplicated after the join), which is the
// semantics all three evaluated systems use.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/envelope.hpp"
#include "geom/occupancy.hpp"

namespace sjc::partition {

enum class PartitionerKind {
  kFixedGrid = 0,
  kStr = 1,
  kBsp = 2,
  kQuadtree = 3,
};

const char* partitioner_kind_name(PartitionerKind kind);

class PartitionScheme {
 public:
  /// `cells` are the partition MBRs; `extent` must cover them (items outside
  /// every cell fall back to the nearest cell by envelope distance).
  PartitionScheme(std::vector<geom::Envelope> cells, geom::Envelope extent);

  const std::vector<geom::Envelope>& cells() const { return cells_; }
  const geom::Envelope& extent() const { return extent_; }
  std::size_t cell_count() const { return cells_.size(); }

  /// Partition ids whose cell intersects `env`; falls back to the single
  /// nearest cell when none intersect (sample under-coverage). Never empty.
  /// Allocating convenience wrapper over assign_into() — one semantics, one
  /// implementation (per-record id order is not a modeled quantity).
  std::vector<std::uint32_t> assign(const geom::Envelope& env) const;

  /// Zero-allocation variant of assign(): clears and refills `out` with the
  /// assigned id set. Queries a uniform-grid cell directory: for the
  /// small-envelope/many-records shape of partition assignment, a bucket
  /// scan beats a tree walk. The systems' per-record assignment path;
  /// `out` is the caller's reusable scratch.
  void assign_into(const geom::Envelope& env, std::vector<std::uint32_t>& out) const;

  /// Filtered assignment: computes the same id set as assign_into() (nearest
  /// -cell fallback included), then drops every cell whose resident-side
  /// occupancy bitmap proves `env` matches nothing there. Unlike the
  /// unfiltered variants the result MAY be empty — a fully filtered record
  /// is a true negative and is never shuffled; the fallback cell is subject
  /// to the filter like any other and is not re-derived after filtering.
  /// Returns the number of candidate cells the filter dropped (callers feed
  /// it straight into the shuffle.filtered_records accounting).
  std::uint32_t assign_into(const geom::Envelope& env,
                            const geom::OccupancyFilter& filter,
                            std::vector<std::uint32_t>& out) const;

  /// Smallest id assign() would return for `env`, without materializing the
  /// id list (the reference-point dedup test needs only the canonical cell).
  std::uint32_t min_assigned(const geom::Envelope& env) const;

  /// Serialized footprint of the cell table (what gets broadcast /
  /// written as the _master file).
  std::size_t size_bytes() const;

 private:
  /// Nearest cell by envelope distance (the never-empty fallback).
  std::uint32_t nearest_cell(const geom::Envelope& env) const;

  /// Buckets every cell into a uniform grid over the extent (CSR layout).
  void build_grid();

  std::vector<geom::Envelope> cells_;
  geom::Envelope extent_;

  // Uniform-grid cell directory backing assign()/assign_into()/min_assigned()
  // (the former STR tree over cells is gone — one directory, one semantics).
  // Each
  // cell is listed in every grid bucket it intersects; queries scan the
  // envelope's bucket range and emit a cell only from the first overlapping
  // bucket (no stamp array, no allocation).
  std::uint32_t grid_cols_ = 1;
  std::uint32_t grid_rows_ = 1;
  double grid_inv_w_ = 0.0;
  double grid_inv_h_ = 0.0;
  std::vector<std::uint32_t> grid_offsets_;  // bucket -> [begin, end) in grid_ids_
  std::vector<std::uint32_t> grid_ids_;
  std::vector<std::uint16_t> cell_bx0_;  // first bucket column/row per cell
  std::vector<std::uint16_t> cell_by0_;
};

/// Uniform cols x rows tiling of `extent`.
PartitionScheme make_fixed_grid(const geom::Envelope& extent, std::uint32_t cols,
                                std::uint32_t rows);

/// STR tiles over `sample` MBRs targeting `target_cells` cells; tiles are
/// expanded so that together they cover `extent`.
PartitionScheme make_str_partitions(const std::vector<geom::Envelope>& sample,
                                    const geom::Envelope& extent,
                                    std::uint32_t target_cells);

/// Recursive median splits of `sample` centers until each leaf holds at most
/// ceil(sample/target_cells) samples; leaves tile `extent` exactly.
PartitionScheme make_bsp_partitions(const std::vector<geom::Envelope>& sample,
                                    const geom::Envelope& extent,
                                    std::uint32_t target_cells);

/// Quadtree leaves over `sample` centers (SpatialHadoop/SATO's quadtree
/// mode): quadrants split while they hold more than sample/target_cells
/// samples; the leaf quadrants tile `extent` exactly but cell counts run
/// in powers of four.
PartitionScheme make_quadtree_partitions(const std::vector<geom::Envelope>& sample,
                                         const geom::Envelope& extent,
                                         std::uint32_t target_cells);

/// Dispatch over `kind` with a uniform interface.
PartitionScheme make_partitions(PartitionerKind kind,
                                const std::vector<geom::Envelope>& sample,
                                const geom::Envelope& extent,
                                std::uint32_t target_cells);

}  // namespace sjc::partition
