// perfbench: the repository benchmark program.
//
//   perfbench --workload taxi-pip|edge-intersects|serve-mixed --seed N
//             --seconds S --trace 0|1 [--expected TABLE] [--spans-out FILE]
//   perfbench --workload W --record-digests   (prints the expected table)
//   perfbench --calibrate                     (serving capacity estimate)
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer ones; the last stdout line is the JSON result. Every answer
// is checked: batch jobs against the expected-outcome table and the
// brute-force oracle, plus a virtual-time pass over the digest seed whose
// modeled digests must match the table; serving answers against the
// oracle, a linear range scan and a brute-force k-NN sort.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "bench.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 25.0;
  bool trace = false;
  std::string expected = "perfbench/expected/outcomes.tsv";
  std::string spans_out;
  bool record_digests = false;
  bool calibrate = false;
};

/// Ordered (name, value, unit) list printed as the result's metrics.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void add(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Batch medians are taken over at least this many passes.
constexpr std::size_t kMinBatchPasses = 5;
/// Set-up runs this many times at the start of a run, and once more before
/// each batch pass or closed-loop chunk, so that the median setup_s spans
/// the whole run and not one moment of a busy host.
constexpr std::size_t kInitialSetups = 3;
/// serve-mixed's closed loop runs in this many chunks.
constexpr std::size_t kServeChunks = 6;
/// Resident joins per system in serve-mixed's closed-loop probe, after
/// each closed-loop chunk.
constexpr std::size_t kProbeRounds = 3;
/// A serving run whose generator fell this far behind its schedule (p99)
/// measured a stalled host, not an open loop. Normal p99 lateness on a
/// 4-vCPU VM is 4-8 ms.
constexpr double kMaxGenLateMs = 50.0;

const char* kSystemKeys[3] = {system_key(SystemKind::kHadoopGisSim),
                              system_key(SystemKind::kSpatialHadoopSim),
                              system_key(SystemKind::kSpatialSparkSim)};
const char* kGroups[4] = {"ingest", "partition", "shuffle", "join"};

std::string job_label(const BatchData& data, const Job& job) {
  return job_experiment(data, job).id + "/" + sjc::core::system_kind_name(job.system) + "/" +
         job.cluster.name;
}

/// True when `s` keeps to BENCHMARK.json's name and unit alphabet, which
/// needs no JSON escaping.
bool plain_token(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isalnum(c) != 0 || std::strchr("_.-/%", c) != nullptr;
  });
}

/// The result is one line with every digit of each value, which
/// sjc::JsonWriter (indented, 9 significant digits) does not write.
void print_result(bool correct, const ErrorTally& errors, const Metrics& metrics) {
  for (const auto& reason : errors.reasons) std::printf("wrong outcome: %s\n", reason.c_str());
  for (const auto& e : metrics.entries) {
    sjc::require(plain_token(e.name) && plain_token(e.unit),
                 "metric name or unit outside the plain alphabet: " + e.name);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(errors.attempted),
              static_cast<unsigned long long>(errors.failed));
  for (std::size_t i = 0; i < metrics.entries.size(); ++i) {
    const auto& e = metrics.entries[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("}}\n");
}

void print_peak_rss(const char* phase) {
  std::printf("peak RSS after %s: %.1f MB\n", phase, peak_rss_mb());
}

/// The median of the set-up times, logged with their range.
double setup_median(const std::vector<double>& times) {
  std::printf("set-up: %zu runs, median %.4fs (min %.4fs, max %.4fs)\n", times.size(),
              median(times), *std::min_element(times.begin(), times.end()),
              *std::max_element(times.begin(), times.end()));
  return median(times);
}

/// Unit of a per-layer metric, from its name.
std::string layer_unit(const std::string& name) {
  const auto has = [&name](const char* part) { return name.find(part) != std::string::npos; };
  if (has("_ms")) return "ms";
  if (has("_us")) return "us";
  if (has("_bytes")) return "bytes";
  if (has("_qps")) return "1/s";
  if (has("_s.") || (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0)) return "s";
  if (has("ratio") || has("share") || has("precision") || has("replication")) return "ratio";
  return "count";
}

/// The serving layer's per-layer metrics from an untraced run (all zero
/// for a batch workload, which has no serving layer).
std::map<std::string, double> serving_layers(const ServeResult& r, std::uint64_t rejected) {
  for (const auto& [name, n, q] : {std::tuple{"all", r.all_ms.size(), 0.99},
                                   std::tuple{"lookup", r.lookup_ms.size(), 0.99},
                                   std::tuple{"join", r.join_ms.size(), 0.95}}) {
    if (n > 0 && !percentile_supported(n, q)) {
      std::printf("warning: %s latency p%g has fewer than %zu of %zu samples beyond it\n", name,
                  q * 100, kMinSamplesBeyond, n);
    }
  }
  return {{"serving.latency_ms.p50", median(r.all_ms)},
          {"serving.latency_ms.p99", quantile(r.all_ms, 0.99)},
          {"serving.lookup_ms.p50", median(r.lookup_ms)},
          {"serving.lookup_ms.p99", quantile(r.lookup_ms, 0.99)},
          {"serving.join_ms.p50", median(r.join_ms)},
          {"serving.join_ms.p95", quantile(r.join_ms, 0.95)},
          {"serving.achieved_qps", r.achieved_qps},
          {"serving.queue_ms.p50", median(r.queue_ms)},
          {"serving.queue_ms.p99", quantile(r.queue_ms, 0.99)},
          {"serving.service_ms.join.p50", median(r.join_service_ms)},
          {"serving.service_ms.lookup.p50", median(r.lookup_service_ms)},
          {"serving.gen_late_ms.p99", quantile(r.gen_late_ms, 0.99)},
          {"serving.rejected", static_cast<double>(rejected)}};
}

// ---------------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------------

struct PassStats {
  std::vector<double> wall_s, cpu_s, sys_share;
  std::vector<std::vector<double>> job_user_s{job_grid().size()};  // by job id, per pass
  std::map<std::string, std::vector<double>> task_cpu;  // per pass
  std::vector<double> attempts;
  std::uint64_t cache_hits = 0, cache_lookups = 0;
};

/// Runs grid passes until `seconds` have passed and at least `min_passes`
/// are done, checking every job. `before_pass` runs before each pass,
/// outside its timing.
PassStats run_passes(const BatchData& data, const std::vector<OutcomeRow>& table,
                     double seconds, std::size_t min_passes, bool trace, SpanLog& log,
                     int parent, ErrorTally& errors, const std::function<void()>& before_pass) {
  PassStats st;
  const auto jobs = job_grid();
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0; pass < min_passes || seconds_since(start) < seconds; ++pass) {
    before_pass();
    const ProcessTimes cpu0 = process_times();
    const Clock::time_point t0 = Clock::now();
    std::map<std::string, double> task_cpu;
    double attempts = 0.0;
    for (const auto& job : jobs) {
      const auto& def = job_experiment(data, job);
      const OutcomeRow* row = find_outcome(table, def.id, job.system, job.cluster.name);
      const std::uint64_t id = (pass + 1) * 1000 + job.id;
      const int span = trace ? log.open("job/" + job_label(data, job), id, parent) : -1;
      std::string wrong;
      const double user0 = process_times().user_s;
      try {
        int call = trace ? log.open("run_spatial_join", id, span) : -1;
        const RunReport report = run_job(data, job, trace);
        if (trace) log.close(call);
        st.job_user_s[job.id].push_back(process_times().user_s - user0);
        if (trace) call = log.open("check", id, span);
        wrong = row == nullptr
                    ? "job missing from the expected-outcome table"
                    : judge({row->status, job.table2 ? data.full_answer : data.sample_answer},
                            report);
        if (trace) {
          log.close(call);
          for (const auto& s : report.trace.spans) {
            task_cpu[std::string(kSystemKeys[static_cast<int>(job.system)]) + "." +
                     phase_group(s.phase)] += s.cpu_seconds;
          }
          attempts += static_cast<double>(report.attempts_used);
          const auto hits = report.counters.get("join.prepared_cache_hits");
          st.cache_hits += hits;
          st.cache_lookups += hits + report.counters.get("join.prepared_cache_misses");
        }
      } catch (const std::exception& e) {
        wrong = std::string("exception: ") + e.what();
      }
      if (trace) log.close(span);
      errors.record(wrong.empty() ? "" : job_label(data, job) + ": " + wrong);
    }
    const double wall = seconds_since(t0);
    const ProcessTimes cpu1 = process_times();
    const double cpu = cpu1.cpu_s() - cpu0.cpu_s();
    st.wall_s.push_back(wall);
    st.cpu_s.push_back(cpu);
    st.sys_share.push_back(cpu > 0.0 ? (cpu1.sys_s - cpu0.sys_s) / cpu : 0.0);
    for (const char* sys : kSystemKeys) {
      for (const char* group : kGroups) {
        const std::string key = std::string(sys) + "." + group;
        st.task_cpu[key].push_back(task_cpu[key]);
      }
    }
    st.attempts.push_back(attempts);
    std::printf("pass %zu%s: wall %.3fs, cpu %.3fs\n", pass + 1, trace ? " (traced)" : "", wall,
                cpu);
  }
  return st;
}

/// The virtual-time pass: every job of the grid on the digest seed's
/// inputs, its status and modeled digest compared with the table. It
/// generates those inputs itself and frees them before it returns.
void check_digests(BatchKind kind, const std::vector<OutcomeRow>& table, ErrorTally& errors,
                   bool print_rows) {
  const auto d = std::make_unique<BatchData>(generate_batch_data(kind, kDefaultSeed));
  sjc::VirtualTimeGuard virtual_time;
  for (const auto& job : job_grid()) {
    const auto& def = job_experiment(*d, job);
    std::string wrong;
    try {
      const RunReport report = run_job(*d, job, false);
      const std::uint64_t digest = modeled_digest(report);
      if (print_rows) {
        std::printf("%s\t%s\t%s\t%s\t%016llx\n", def.id.c_str(),
                    sjc::core::system_kind_name(job.system), job.cluster.name.c_str(),
                    sjc::status_code_name(report.status.code()),
                    static_cast<unsigned long long>(digest));
        continue;
      }
      const OutcomeRow* row = find_outcome(table, def.id, job.system, job.cluster.name);
      if (row == nullptr) {
        wrong = "job missing from the expected-outcome table";
      } else if (report.status.code() != row->status) {
        wrong = std::string("virtual-time status ") +
                sjc::status_code_name(report.status.code());
      } else if (digest != row->digest) {
        wrong = "modeled digest differs from the stored one";
      }
    } catch (const std::exception& e) {
      wrong = std::string("exception: ") + e.what();
    }
    if (!print_rows) errors.record(wrong.empty() ? "" : job_label(*d, job) + ": " + wrong);
  }
}

int run_batch(BatchKind kind, const Args& args) {
  std::vector<OutcomeRow> table;
  if (!args.record_digests) table = load_outcome_table(args.expected);

  ErrorTally errors;
  if (args.record_digests) {
    check_digests(kind, table, errors, true);
    return 0;
  }
  // First, so that its inputs are freed before the run's own exist.
  check_digests(kind, table, errors, false);
  print_peak_rss("the digest pass");

  // Set-up: dataset generation. Before each pass it replaces the inputs
  // with an identical copy; the old copy is freed outside the timing.
  BatchData data;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const OracleAnswer full = data.full_answer, sample = data.sample_answer;
    data = BatchData();
    const Clock::time_point t0 = Clock::now();
    data = generate_batch_data(kind, args.seed);
    setup_s.push_back(seconds_since(t0));
    data.full_answer = full;
    data.sample_answer = sample;
  };
  for (std::size_t rep = 0; rep < kInitialSetups; ++rep) set_up();

  // The oracle runs once per seed, outside every timed metric.
  {
    const Clock::time_point t0 = Clock::now();
    data.full_answer = oracle_join(data.full_left, data.full_right, data.full.predicate);
    data.sample_answer =
        oracle_join(data.sample_left, data.sample_right, data.sample.predicate);
    std::printf("oracle: %s %zu pairs, %s %zu pairs (%.2fs)\n", data.full.id.c_str(),
                data.full_answer.count, data.sample.id.c_str(), data.sample_answer.count,
                seconds_since(t0));
  }
  print_peak_rss("set-up and the oracle");

  SpanLog log;
  const int root = log.open(std::string("workload/") + args.workload, 0, -1);
  Metrics m;
  if (!args.trace) {
    const PassStats st =
        run_passes(data, table, args.seconds, kMinBatchPasses, false, log, root, errors, set_up);
    std::printf("%zu passes of %zu jobs\n", st.wall_s.size(), job_grid().size());
    m.add("setup_s", setup_median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("pass_wall_s", median(st.wall_s), "s");
    m.add("pass_cpu_s", median(st.cpu_s), "s");
    // A system's share of a pass: the sum of its jobs' median user CPU.
    double system_user_s[3] = {0.0, 0.0, 0.0};
    for (const auto& job : job_grid()) {
      system_user_s[static_cast<int>(job.system)] += median(st.job_user_s[job.id]);
    }
    for (int s = 0; s < 3; ++s) {
      m.add(std::string("cpu_s.") + kSystemKeys[s], system_user_s[s], "s");
    }
  } else {
    // Untraced then traced passes, half the time each; the layer replay
    // after them.
    const PassStats plain =
        run_passes(data, table, args.seconds / 2, 2, false, log, root, errors, set_up);
    const PassStats traced =
        run_passes(data, table, args.seconds / 2, 2, true, log, root, errors, set_up);
    OracleAnswer replayed;
    auto layers = replay_layers(data.full_left, data.full_right, data.full.predicate,
                                args.seed, log, root, replayed);
    errors.record(replayed.count == data.full_answer.count &&
                          replayed.hash == data.full_answer.hash
                      ? ""
                      : "layer replay's joined pairs differ from the oracle's");
    layers["workload.generate_s"] = setup_median(setup_s);
    layers["geom.prepared_cache_hit_ratio"] =
        traced.cache_lookups > 0 ? static_cast<double>(traced.cache_hits) /
                                       static_cast<double>(traced.cache_lookups)
                                 : 0.0;
    for (const auto& [key, per_pass] : traced.task_cpu) {
      const auto dot = key.find('.');
      layers["systems." + key.substr(0, dot) + ".task_cpu_s." + key.substr(dot + 1)] =
          median(per_pass);
    }
    layers["process.sys_share"] = median(plain.sys_share);
    layers["cluster.task_attempts"] = median(traced.attempts);
    layers.merge(serving_layers(ServeResult{}, 0));
    layers["trace.overhead_ratio"] = median(traced.wall_s) / median(plain.wall_s) - 1.0;
    for (const auto& [name, value] : layers) m.add(name, value, layer_unit(name));
  }
  log.close(root);
  if (!args.spans_out.empty() && !log.write_json(args.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
  }
  print_result(errors.failed == 0, errors, m);
  return 0;
}

// ---------------------------------------------------------------------------
// Serving workload
// ---------------------------------------------------------------------------

int run_serve(const Args& args) {
  const ServeLoad load;
  // Set-up: generation and catalog install. Before each of the closed
  // loop's chunks it replaces the bench with an identical one; the old one
  // is freed outside the timing.
  std::vector<double> setup_s;
  std::unique_ptr<ServeBench> bench;
  OracleAnswer answer;
  const auto set_up = [&] {
    bench.reset();
    const Clock::time_point t0 = Clock::now();
    bench = std::make_unique<ServeBench>(false);
    setup_s.push_back(seconds_since(t0));
    bench->set_oracle(answer);
  };
  for (std::size_t rep = 0; rep < kInitialSetups; ++rep) set_up();
  answer = bench->compute_oracle();
  print_peak_rss("set-up and the oracle");

  SpanLog log;
  const int root = log.open(std::string("workload/") + args.workload, 0, -1);
  Metrics m;
  bool valid = true;
  ErrorTally errors;
  const auto check_schedule = [&](const ServeResult& r) {
    const double late = quantile(r.gen_late_ms, 0.99);
    std::printf("open loop: %zu queries (%zu joins), generator late p99 %.3f ms\n",
                r.all_ms.size(), r.join_ms.size(), late);
    if (late > kMaxGenLateMs) {
      std::printf("invalid run: the generator fell %.1f ms behind its schedule (p99)\n", late);
      valid = false;
    }
  };
  const auto merge_errors = [&](const ErrorTally& e) {
    errors.attempted += e.attempted;
    errors.failed += e.failed;
    errors.reasons.insert(errors.reasons.end(), e.reasons.begin(), e.reasons.end());
  };
  if (!args.trace) {
    // A third of the time in the open loop, whose latencies are logged
    // ungated; the rest in closed-loop blocks, which time the service.
    const ServeResult r = bench->run(load, args.seed, args.seconds / 3, nullptr, root);
    check_schedule(r);
    merge_errors(r.errors);
    DrainResult drained;
    std::vector<std::vector<double>> join_user_s;
    for (std::size_t chunk = 0; chunk < kServeChunks; ++chunk) {
      set_up();
      const DrainResult part = bench->drain_blocks(
          load, args.seed, args.seconds * 2 / 3 / static_cast<double>(kServeChunks));
      drained.wall_s.insert(drained.wall_s.end(), part.wall_s.begin(), part.wall_s.end());
      drained.cpu_s.insert(drained.cpu_s.end(), part.cpu_s.begin(), part.cpu_s.end());
      merge_errors(part.errors);
      bench->probe_joins(kProbeRounds, join_user_s, errors);
    }
    std::printf("closed loop: %zu blocks of %zu queries\n", drained.wall_s.size(), load.block);
    m.add("setup_s", setup_median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("pass_wall_s", median(drained.wall_s), "s");
    m.add("pass_cpu_s", median(drained.cpu_s), "s");
    for (int s = 0; s < 3; ++s) {
      m.add(std::string("cpu_s.") + kSystemKeys[s], median(join_user_s[s]), "s");
    }
    for (const auto& [name, value] : serving_layers(r, r.rejected)) {
      std::printf("%s %.6g\n", name.c_str(), value);  // ungated; see README
    }
  } else {
    const ServeResult plain = bench->run(load, args.seed, args.seconds / 2, nullptr, root);
    check_schedule(plain);
    merge_errors(plain.errors);
    ServeBench traced_bench(true);
    traced_bench.set_oracle(answer);
    const ServeResult traced = traced_bench.run(load, args.seed + 1, args.seconds / 2, &log, root);
    check_schedule(traced);
    merge_errors(traced.errors);
    OracleAnswer replayed;
    auto layers = replay_layers(bench->left(), bench->right(), JoinPredicate::kWithin,
                                args.seed, log, root, replayed);
    layers["workload.generate_s"] = bench->generate_seconds();
    layers["geom.prepared_cache_hit_ratio"] =
        traced.cache_lookups > 0 ? static_cast<double>(traced.cache_hits) /
                                       static_cast<double>(traced.cache_lookups)
                                 : 0.0;
    for (const char* sys : kSystemKeys) {
      for (const char* group : kGroups) {
        const std::string key = std::string(sys) + "." + group;
        const auto it = traced.task_cpu.find(key);
        // Per block of the traced open loop's queries.
        layers["systems." + std::string(sys) + ".task_cpu_s." + group] =
            it == traced.task_cpu.end() ? 0.0
                                        : it->second * static_cast<double>(load.block) /
                                              static_cast<double>(traced.all_ms.size());
      }
    }
    layers["process.sys_share"] = plain.sys_share;
    layers["cluster.task_attempts"] = static_cast<double>(traced.task_attempts);
    layers.merge(serving_layers(plain, plain.rejected + traced.rejected));
    layers["trace.overhead_ratio"] = traced.mean_service_ms / plain.mean_service_ms - 1.0;
    for (const auto& [name, value] : layers) m.add(name, value, layer_unit(name));
  }
  log.close(root);
  if (!args.spans_out.empty() && !log.write_json(args.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
  }
  print_result(valid && errors.failed == 0, errors, m);
  return 0;
}

int calibrate(const Args& args) {
  const ServeLoad load;
  ServeBench bench(false);
  bench.compute_oracle();
  const DrainResult drained = bench.drain_blocks(load, args.seed, 20.0);
  const double capacity = static_cast<double>(load.block) / median(drained.wall_s);
  std::printf("capacity %.1f q/s with %zu workers; half: %.1f q/s\n", capacity, load.workers,
              capacity / 2);
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--record-digests") {
      args.record_digests = true;
    } else if (flag == "--calibrate") {
      args.calibrate = true;
    } else if (!has_value) {
      return false;
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--expected") {
      args.expected = argv[++i];
    } else if (flag == "--spans-out") {
      args.spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    if (args.calibrate) return calibrate(args);
    if (args.workload == "taxi-pip") return run_batch(BatchKind::kTaxiPip, args);
    if (args.workload == "edge-intersects") return run_batch(BatchKind::kEdgeIntersects, args);
    if (args.workload == "serve-mixed") return run_serve(args);
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 2;
}
