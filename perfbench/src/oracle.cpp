#include <algorithm>
#include <thread>

#include "bench.hpp"
#include "geom/predicates.hpp"

namespace perfbench {

OracleAnswer oracle_join(const Dataset& left, const Dataset& right,
                         JoinPredicate predicate, unsigned threads) {
  sjc::require(predicate != JoinPredicate::kWithinDistance,
          "oracle_join: within-distance joins are not part of the benchmark");
  const auto& lf = left.features();
  const auto& rf = right.features();
  const auto lenv = left.envelopes();
  const auto renv = right.envelopes();
  threads = std::max(1u, threads);
  std::vector<std::vector<sjc::core::JoinPair>> found(threads);
  std::vector<std::thread> workers;
  // Interleaved rows balance the skewed (hotspot) left side across threads.
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t l = t; l < lf.size(); l += threads) {
        for (std::size_t r = 0; r < rf.size(); ++r) {
          if (!lenv[l].intersects(renv[r])) continue;
          const bool hit =
              predicate == JoinPredicate::kWithin
                  ? sjc::geom::contains_naive(rf[r].geometry, lf[l].geometry)
                  : sjc::geom::intersects_naive(lf[l].geometry, rf[r].geometry);
          if (hit) found[t].push_back({lf[l].id, rf[r].id});
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<sjc::core::JoinPair> pairs;
  for (const auto& part : found) pairs.insert(pairs.end(), part.begin(), part.end());
  return {pairs.size(), sjc::core::hash_pairs_unordered(pairs)};
}

}  // namespace perfbench
