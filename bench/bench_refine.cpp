// Refinement bench for the Prepared engine's batched SoA path
// (geom::BatchRefiner: packed linework, inner/outer approximations, batched
// point-in-polygon over whole candidate groups) and its SIMD kernels.
//
// Two parts:
//  1. cross-dispatch verification: on both Table 2 experiments, every
//     available SIMD dispatch path must reproduce the scalar path's pair
//     list (same pairs, same order) and refine.* accounting, on the
//     batched local join and end-to-end through all three system analogs;
//     the scalar run must also keep exact_tests + early_accepts +
//     early_rejects == refine.candidates. Any mismatch exits 1;
//  2. per-kernel timings: scalar vs each SIMD path on synthesized SoA
//     inputs. Pass --min-simd-speedup=X to make the bench exit 1 when the
//     best kernel's speedup over scalar falls below X (the CI
//     non-regression guard; skipped when no SIMD path is available).
//
// Results go to BENCH_refine.json (see util/bench_io.hpp). Set SJC_SCALE to
// change the workload scale (default 1e-3).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/local_join.hpp"
#include "geom/batch_refine.hpp"
#include "geom/simd_dispatch.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "util/bench_io.hpp"
#include "workload/generators.hpp"

namespace {

using namespace sjc;

/// Defeats dead-code elimination of the timed loops (sjc_bench binaries do
/// not link google-benchmark, so no DoNotOptimize here).
volatile std::uint64_t g_sink = 0;

/// Median-free ns/call: self-scales the iteration count so each measurement
/// runs at least ~20 ms.
template <typename Fn>
double time_ns_per_call(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
                .count());
    if (ns >= 20e6) return ns / static_cast<double>(iters);
    iters *= 4;
  }
}

/// The batched local join over one experiment's full inputs: its pair list
/// (in emission order) and refine.* counters.
struct ModeResult {
  std::vector<core::JoinPair> pairs;
  std::map<std::string, std::uint64_t> counters;
};

ModeResult run_batched(std::span<const geom::Feature> left,
                       std::span<const geom::Feature> right,
                       core::JoinPredicate predicate) {
  cluster::Counters counters;
  core::LocalJoinSpec spec;
  spec.algorithm = index::LocalJoinAlgorithm::kIndexedNestedLoop;
  spec.engine = &geom::GeometryEngine::prepared();
  spec.predicate = predicate;
  spec.refine_counters = &counters;
  core::LocalJoinScratch scratch;
  ModeResult result;
  core::run_local_join(left, right, spec, core::AcceptAllPairs{}, scratch,
                       result.pairs);
  result.counters = counters.snapshot();
  return result;
}

// ---------------------------------------------------------------------------
// Cross-dispatch verification: every available SIMD path must produce
// bit-identical results and refinement accounting to the scalar path — on
// the batched local join AND end-to-end across all three system analogs.
// ---------------------------------------------------------------------------

/// Everything one dispatch path produced on one experiment.
struct DispatchResult {
  std::vector<core::JoinPair> pairs;                  // batched local join
  std::map<std::string, std::uint64_t> counters;      // its refine.* split
  std::vector<std::uint64_t> system_hashes;           // per system analog
  std::vector<std::uint64_t> system_counts;
  std::vector<std::map<std::string, std::uint64_t>> system_counters;
};

constexpr core::SystemKind kSystems[] = {core::SystemKind::kHadoopGisSim,
                                         core::SystemKind::kSpatialHadoopSim,
                                         core::SystemKind::kSpatialSparkSim};

DispatchResult run_dispatch(const workload::Dataset& left,
                            const workload::Dataset& right,
                            core::JoinPredicate predicate) {
  DispatchResult out;
  const ModeResult batched = run_batched(left.features(), right.features(), predicate);
  out.pairs = batched.pairs;
  out.counters = batched.counters;
  for (const core::SystemKind system : kSystems) {
    core::JoinQueryConfig query;
    query.predicate = predicate;
    core::ExecutionConfig exec;
    core::RunReport report;
    if (system == core::SystemKind::kHadoopGisSim) {
      // Pipe-capacity gate off: the larger experiment intentionally trips
      // HadoopGIS's streaming overflow (the paper's failure mode), but here
      // we only compare dispatch paths, which needs completed runs.
      systems::HadoopGisConfig config;
      config.pipe_capacity_fraction = 0.0;
      report = systems::run_hadoop_gis(left, right, query, exec, config);
    } else {
      report = core::run_spatial_join(system, left, right, query, exec);
    }
    if (!report.success) {
      std::fprintf(stderr, "cross-dispatch: %s run failed: %s\n",
                   core::system_kind_name(system), report.failure_reason.c_str());
      std::exit(1);
    }
    out.system_hashes.push_back(report.result_hash);
    out.system_counts.push_back(report.result_count);
    out.system_counters.push_back(report.counters.snapshot());
  }
  return out;
}

std::uint64_t map_value(const std::map<std::string, std::uint64_t>& m,
                        const char* name) {
  const auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

/// The scalar baseline's refinement accounting, for the JSON report.
struct VerifyResult {
  std::uint64_t candidates = 0;
  std::uint64_t hits = 0;
  std::uint64_t exact_tests = 0;
  std::uint64_t early_accepts = 0;
  std::uint64_t early_rejects = 0;
};

VerifyResult verify_dispatch_paths(const std::string& id,
                                   const workload::Dataset& left,
                                   const workload::Dataset& right,
                                   core::JoinPredicate predicate) {
  static const char* kRefineKeys[] = {
      "refine.candidates",    "refine.exact_tests",    "refine.early_accepts",
      "refine.early_rejects", "refine.exact_fastpath", "refine.exact_slowpath"};
  const auto paths = geom::simd::available_paths();
  geom::simd::force_path(geom::simd::Path::kScalar);
  const DispatchResult baseline = run_dispatch(left, right, predicate);
  const VerifyResult v{map_value(baseline.counters, "refine.candidates"),
                       baseline.pairs.size(),
                       map_value(baseline.counters, "refine.exact_tests"),
                       map_value(baseline.counters, "refine.early_accepts"),
                       map_value(baseline.counters, "refine.early_rejects")};
  // Accounting invariants on the scalar baseline: the three refinement
  // outcomes partition the candidates, and every exact test is either a
  // fastpath or a slowpath one.
  bool ok = true;
  if (v.exact_tests + v.early_accepts + v.early_rejects != v.candidates) {
    std::fprintf(stderr,
                 "%s: %llu exact + %llu accepts + %llu rejects != %llu candidates\n",
                 id.c_str(), static_cast<unsigned long long>(v.exact_tests),
                 static_cast<unsigned long long>(v.early_accepts),
                 static_cast<unsigned long long>(v.early_rejects),
                 static_cast<unsigned long long>(v.candidates));
    ok = false;
  }
  if (map_value(baseline.counters, "refine.exact_fastpath") +
          map_value(baseline.counters, "refine.exact_slowpath") !=
      v.exact_tests) {
    std::fprintf(stderr, "%s: scalar fastpath+slowpath != exact_tests\n", id.c_str());
    ok = false;
  }
  for (const auto& path : paths) {
    if (path == geom::simd::Path::kScalar) continue;
    geom::simd::force_path(path);
    const DispatchResult got = run_dispatch(left, right, predicate);
    const char* pn = geom::simd::path_name(path);
    if (got.pairs != baseline.pairs) {
      std::fprintf(stderr, "%s: %s batched pairs differ from scalar (%zu vs %zu)\n",
                   id.c_str(), pn, got.pairs.size(), baseline.pairs.size());
      ok = false;
    }
    for (const char* key : kRefineKeys) {
      if (map_value(got.counters, key) != map_value(baseline.counters, key)) {
        std::fprintf(stderr, "%s: %s counter %s = %llu differs from scalar %llu\n",
                     id.c_str(), pn, key,
                     static_cast<unsigned long long>(map_value(got.counters, key)),
                     static_cast<unsigned long long>(
                         map_value(baseline.counters, key)));
        ok = false;
      }
    }
    for (std::size_t s = 0; s < std::size(kSystems); ++s) {
      if (got.system_hashes[s] != baseline.system_hashes[s] ||
          got.system_counts[s] != baseline.system_counts[s]) {
        std::fprintf(stderr, "%s: %s %s result differs from scalar\n", id.c_str(),
                     pn, core::system_kind_name(kSystems[s]));
        ok = false;
      }
      for (const char* key : kRefineKeys) {
        if (map_value(got.system_counters[s], key) !=
            map_value(baseline.system_counters[s], key)) {
          std::fprintf(stderr, "%s: %s %s counter %s differs from scalar\n",
                       id.c_str(), pn, core::system_kind_name(kSystems[s]), key);
          ok = false;
        }
      }
    }
  }
  geom::simd::reset_from_env();
  if (!ok) std::exit(1);
  std::printf("verify %-18s dispatch OK: %zu path(s) bit-identical across batched "
              "join + 3 systems; %llu candidates -> exact %llu, early-accept %llu, "
              "early-reject %llu, %llu pairs\n",
              id.c_str(), paths.size(), static_cast<unsigned long long>(v.candidates),
              static_cast<unsigned long long>(v.exact_tests),
              static_cast<unsigned long long>(v.early_accepts),
              static_cast<unsigned long long>(v.early_rejects),
              static_cast<unsigned long long>(v.hits));
  return v;
}

// ---------------------------------------------------------------------------
// Per-kernel micro-bench: scalar vs each SIMD path on synthesized SoA data.
// ---------------------------------------------------------------------------

/// Deterministic 64-bit LCG (no <random> to keep the probe set frozen
/// across libstdc++ versions).
struct Lcg {
  std::uint64_t state;
  double next_unit() {  // [0, 1)
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
};

struct KernelBench {
  std::string kernel;
  std::string path;
  double ns_per_call = 0.0;
  double speedup_vs_scalar = 1.0;
};

/// Times the three kernels for every available path on synthesized inputs
/// (star-polygon edge table, random segment grid run, chunk envelopes),
/// verifying that all paths agree on every probe before timing anything.
std::vector<KernelBench> bench_kernels() {
  constexpr std::size_t kEdges = 4096;
  constexpr std::size_t kProbes = 512;

  // Star polygon with kEdges edges as a closed SoA edge table, plus probe
  // points scattered across (and slightly beyond) its envelope.
  std::vector<double> ax(kEdges), ay(kEdges), bx(kEdges), by(kEdges);
  {
    Lcg rng{0x5eed5eedULL};
    std::vector<double> vx(kEdges + 1), vy(kEdges + 1);
    for (std::size_t i = 0; i < kEdges; ++i) {
      const double theta = 6.283185307179586 * static_cast<double>(i) /
                           static_cast<double>(kEdges);
      const double r = 0.6 + 0.4 * rng.next_unit();
      vx[i] = r * std::cos(theta);
      vy[i] = r * std::sin(theta);
    }
    vx[kEdges] = vx[0];
    vy[kEdges] = vy[0];
    for (std::size_t i = 0; i < kEdges; ++i) {
      ax[i] = vx[i];
      ay[i] = vy[i];
      bx[i] = vx[i + 1];
      by[i] = vy[i + 1];
    }
  }
  std::vector<double> px(kProbes), py(kProbes);
  {
    Lcg rng{0xabcdef12ULL};
    for (std::size_t i = 0; i < kProbes; ++i) {
      px[i] = -1.1 + 2.2 * rng.next_unit();
      py[i] = -1.1 + 2.2 * rng.next_unit();
    }
  }

  // Segment grid run: short random segments with precomputed bboxes, and
  // probe segments placed so most candidates fail the bbox prune (the
  // kernel's steady state inside one grid cell).
  std::vector<double> sax(kEdges), say(kEdges), sbx(kEdges), sby(kEdges);
  std::vector<double> smnx(kEdges), smny(kEdges), smxx(kEdges), smxy(kEdges);
  {
    Lcg rng{0x77777777ULL};
    for (std::size_t i = 0; i < kEdges; ++i) {
      const double x = rng.next_unit(), y = rng.next_unit();
      sax[i] = x;
      say[i] = y;
      sbx[i] = x + 0.01 * (rng.next_unit() - 0.5);
      sby[i] = y + 0.01 * (rng.next_unit() - 0.5);
      smnx[i] = std::min(sax[i], sbx[i]);
      smny[i] = std::min(say[i], sby[i]);
      smxx[i] = std::max(sax[i], sbx[i]);
      smxy[i] = std::max(say[i], sby[i]);
    }
  }
  const geom::simd::SegSoA segs{sax.data(),  say.data(),  sbx.data(),  sby.data(),
                                smnx.data(), smny.data(), smxx.data(), smxy.data()};
  std::vector<double> qx0(kProbes), qy0(kProbes), qx1(kProbes), qy1(kProbes);
  {
    Lcg rng{0x13579bdfULL};
    for (std::size_t i = 0; i < kProbes; ++i) {
      const double x = rng.next_unit(), y = rng.next_unit();
      qx0[i] = x;
      qy0[i] = y;
      qx1[i] = x + 0.02 * (rng.next_unit() - 0.5);
      qy1[i] = y + 0.02 * (rng.next_unit() - 0.5);
    }
  }

  // Envelope sweep: chunk envelopes plus probe rects that mostly miss, so
  // the sweep usually scans the whole array (its worst case).
  std::vector<double> emnx(kEdges), emny(kEdges), emxx(kEdges), emxy(kEdges);
  {
    Lcg rng{0x2468aceULL};
    for (std::size_t i = 0; i < kEdges; ++i) {
      const double x = rng.next_unit(), y = rng.next_unit();
      emnx[i] = x;
      emny[i] = y;
      emxx[i] = x + 0.002;
      emxy[i] = y + 0.002;
    }
  }

  const auto paths = geom::simd::available_paths();

  // Correctness before timing: per probe, every path must agree with scalar.
  const geom::simd::Kernels& scalar =
      *geom::simd::kernels_for(geom::simd::Path::kScalar);
  for (const auto& path : paths) {
    const geom::simd::Kernels& k = *geom::simd::kernels_for(path);
    for (std::size_t i = 0; i < kProbes; ++i) {
      const bool pip_s = scalar.pip_covers_run(ax.data(), ay.data(), bx.data(),
                                               by.data(), kEdges, px[i], py[i]);
      const bool pip_k = k.pip_covers_run(ax.data(), ay.data(), bx.data(),
                                          by.data(), kEdges, px[i], py[i]);
      const bool seg_s = scalar.seg_run_intersects(
          segs, 0, kEdges, qx0[i], qy0[i], qx1[i], qy1[i],
          std::min(qx0[i], qx1[i]), std::min(qy0[i], qy1[i]),
          std::max(qx0[i], qx1[i]), std::max(qy0[i], qy1[i]));
      const bool seg_k = k.seg_run_intersects(
          segs, 0, kEdges, qx0[i], qy0[i], qx1[i], qy1[i],
          std::min(qx0[i], qx1[i]), std::min(qy0[i], qy1[i]),
          std::max(qx0[i], qx1[i]), std::max(qy0[i], qy1[i]));
      const bool env_s =
          scalar.env_any_overlaps(emnx.data(), emny.data(), emxx.data(),
                                  emxy.data(), kEdges, px[i], py[i], px[i], py[i]);
      const bool env_k =
          k.env_any_overlaps(emnx.data(), emny.data(), emxx.data(), emxy.data(),
                             kEdges, px[i], py[i], px[i], py[i]);
      if (pip_s != pip_k || seg_s != seg_k || env_s != env_k) {
        std::fprintf(stderr,
                     "kernel bench: %s disagrees with scalar on probe %zu "
                     "(pip %d/%d seg %d/%d env %d/%d)\n",
                     geom::simd::path_name(path), i, pip_s, pip_k, seg_s, seg_k,
                     env_s, env_k);
        std::exit(1);
      }
    }
  }

  std::vector<KernelBench> results;
  std::map<std::string, double> scalar_ns;
  for (const auto& path : paths) {
    const geom::simd::Kernels& k = *geom::simd::kernels_for(path);
    const char* pn = geom::simd::path_name(path);
    const double pip_ns = time_ns_per_call([&] {
                            std::uint64_t acc = 0;
                            for (std::size_t i = 0; i < kProbes; ++i) {
                              acc += k.pip_covers_run(ax.data(), ay.data(),
                                                      bx.data(), by.data(), kEdges,
                                                      px[i], py[i])
                                         ? 1
                                         : 0;
                            }
                            g_sink = acc;
                          }) /
                          static_cast<double>(kProbes);
    const double seg_ns =
        time_ns_per_call([&] {
          std::uint64_t acc = 0;
          for (std::size_t i = 0; i < kProbes; ++i) {
            acc += k.seg_run_intersects(segs, 0, kEdges, qx0[i], qy0[i], qx1[i],
                                        qy1[i], std::min(qx0[i], qx1[i]),
                                        std::min(qy0[i], qy1[i]),
                                        std::max(qx0[i], qx1[i]),
                                        std::max(qy0[i], qy1[i]))
                       ? 1
                       : 0;
          }
          g_sink = acc;
        }) /
        static_cast<double>(kProbes);
    const double env_ns =
        time_ns_per_call([&] {
          std::uint64_t acc = 0;
          for (std::size_t i = 0; i < kProbes; ++i) {
            acc += k.env_any_overlaps(emnx.data(), emny.data(), emxx.data(),
                                      emxy.data(), kEdges, px[i], py[i], px[i],
                                      py[i])
                       ? 1
                       : 0;
          }
          g_sink = acc;
        }) /
        static_cast<double>(kProbes);
    const struct {
      const char* name;
      double ns;
    } rows[] = {{"pip_covers_run", pip_ns},
                {"seg_run_intersects", seg_ns},
                {"env_any_overlaps", env_ns}};
    for (const auto& row : rows) {
      KernelBench kb;
      kb.kernel = row.name;
      kb.path = pn;
      kb.ns_per_call = row.ns;
      if (path == geom::simd::Path::kScalar) {
        scalar_ns[row.name] = row.ns;
      } else {
        kb.speedup_vs_scalar = scalar_ns[row.name] / row.ns;
      }
      results.push_back(kb);
    }
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sjc;
  double min_simd_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-simd-speedup=", 19) == 0) {
      min_simd_speedup = std::atof(argv[i] + 19);
    }
  }
  const double scale = core::bench_scale();
  workload::WorkloadConfig wc;
  wc.scale = scale;

  std::printf(
      "== Batched refinement: cross-dispatch verification + SIMD kernels (scale %g) ==\n\n",
      scale);

  JsonWriter json;
  json.begin_object();
  json.field("bench", "refine");
  json.field("scale", scale);
  json.begin_array("experiments");

  for (const auto& def : core::full_experiments()) {
    const auto left = workload::generate(def.left, wc);
    const auto right = workload::generate(def.right, wc);
    const VerifyResult v = verify_dispatch_paths(def.id, left, right, def.predicate);

    json.begin_element();
    json.field("experiment", def.id);
    json.field("predicate", core::join_predicate_name(def.predicate));
    json.field("n_left", static_cast<std::uint64_t>(left.size()));
    json.field("n_right", static_cast<std::uint64_t>(right.size()));
    json.field("candidates", v.candidates);
    json.field("hits", v.hits);
    json.field("exact_tests", v.exact_tests);
    json.field("early_accepts", v.early_accepts);
    json.field("early_rejects", v.early_rejects);
    json.end_object();
  }
  json.end_array();
  std::printf("\n");

  // Per-kernel scalar-vs-SIMD head-to-head on synthesized SoA inputs.
  const std::vector<KernelBench> kernel_rows = bench_kernels();
  double best_simd_speedup = 0.0;
  bool have_simd = false;
  json.begin_array("kernels");
  for (const auto& kb : kernel_rows) {
    if (kb.path != "scalar") {
      have_simd = true;
      best_simd_speedup = std::max(best_simd_speedup, kb.speedup_vs_scalar);
    }
    std::printf("kernel %-20s %-6s %9.1f ns/call%s\n", kb.kernel.c_str(),
                kb.path.c_str(), kb.ns_per_call,
                kb.path == "scalar"
                    ? ""
                    : (" (" + std::to_string(kb.speedup_vs_scalar).substr(0, 4) +
                       "x vs scalar)")
                          .c_str());
    json.begin_element();
    json.field("kernel", kb.kernel);
    json.field("path", kb.path);
    json.field("ns_per_call", kb.ns_per_call);
    json.field("speedup_vs_scalar", kb.speedup_vs_scalar);
    json.end_object();
  }
  json.end_array();
  std::printf("\n");

  json.field("min_simd_speedup_required", min_simd_speedup);
  json.field("simd_active", geom::simd::active_path_name());
  json.field("best_simd_kernel_speedup", best_simd_speedup);
  json.field("peak_rss_bytes", peak_rss_bytes());
  json.end_object();
  const std::string path = write_bench_json("refine", json.str());
  std::printf("json written to %s\n", path.c_str());

  int rc = 0;
  // The SIMD gate asks for the floor on the *best* kernel (at least one
  // kernel must clear it); skipped when no SIMD path is compiled
  // in/available.
  if (min_simd_speedup > 0.0) {
    if (!have_simd) {
      std::printf("simd gate skipped: no SIMD path available on this host\n");
    } else if (best_simd_speedup < min_simd_speedup) {
      std::fprintf(stderr, "simd kernel speedup regression: best %.2fx < required %.2fx\n",
                   best_simd_speedup, min_simd_speedup);
      rc = 1;
    }
  }
  return rc;
}
