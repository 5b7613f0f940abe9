// PreparedCache: a cache of prepared refiners (geom::BatchRefiner, the
// PreparedGeometry analog) keyed by feature id, scoped to a run or — in
// serving mode — shared across every query that touches the same resident
// dataset pair.
//
// Partition-based joins (the paper's §II design choice shared by all three
// systems) overlap-assign features, so the same right-side geometry appears
// in many partitions and — without this cache — is re-prepared once per
// partition pair it meets. LocationSpark (PAPERS.md) demonstrates the win
// from keeping query-side index/prepared structures alive across
// partitions; PreparedCache brings that to the shared local-join kernel: a
// thread-safe, capacity-bounded (LRU) map from feature id to a batch
// refiner, shared by all tasks of a join wave (and, via
// serving::ResidentCatalog, by all queries against one resident entry).
//
// Each entry owns a private copy of the geometry it was built from, so a
// cached handle stays valid even when the source partition block (or a
// streaming reducer's transient feature vector) is gone. Eviction never
// invalidates handles already handed out — they share ownership.
//
// Hit/miss accounting: a lookup that finds the id is a hit; a miss is
// counted only by the insert that wins, so tasks racing to build the same
// id count one miss between them and the losers count as hits. Without
// eviction the split is therefore schedule-independent (misses == distinct
// ids bound). Once LRU eviction runs (more distinct ids than capacity),
// which entry is evicted — and so the later hit/miss split — still follows
// the thread interleaving.
//
// Fidelity note: the cache models reuse of *prepared* structures only. The
// Simple (GEOS-analog) engine's from-scratch per-call evaluation is the
// model being measured, so callers must consult the cache only for the
// Prepared engine (core::run_local_join enforces this), keeping the
// JTS-vs-GEOS engine gap of Tables 2-3 intact.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "geom/geometry.hpp"

namespace sjc::geom {

class BatchRefiner;

class PreparedCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit PreparedCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the BatchRefiner for feature `id`, building one (against an
  /// internally owned copy of `geometry`) on a miss. Two features with the
  /// same id must carry equal geometry — true for the partition-duplicated
  /// datasets this serves. Handles already handed out stay valid through
  /// shared ownership.
  std::shared_ptr<const BatchRefiner> acquire_refiner(std::uint64_t id,
                                                      const Geometry& geometry);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  /// Total acquire_refiner() calls. Invariant (checked by
  /// tests, including under TSan): hits() + misses() == lookups().
  std::uint64_t lookups() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  /// hits / lookups, 0 when never queried.
  double hit_rate() const;

  void clear();

 private:
  struct RefinerHolder {
    Geometry geometry;  // owned copy; `refiner` references it
    std::unique_ptr<BatchRefiner> refiner;
    ~RefinerHolder();  // out-of-line: BatchRefiner is incomplete here
  };
  struct Entry {
    std::shared_ptr<RefinerHolder> refiner;
    std::uint64_t last_used = 0;
  };

  /// Bumps last_used and, when over capacity, evicts the LRU entry other
  /// than `keep_id`. Caller holds mutex_.
  void touch_and_evict_locked(Entry& entry, std::uint64_t keep_id);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t tick_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace sjc::geom
