#include <algorithm>
#include <cmath>
#include <future>
#include <thread>

#include "bench.hpp"
#include "serving/resident_catalog.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace perfbench {

namespace {

using sjc::geom::Envelope;
using sjc::serving::Query;
using sjc::serving::QueryKind;
using sjc::serving::QueryResult;

constexpr SystemKind kSystems[3] = {SystemKind::kHadoopGisSim, SystemKind::kSpatialHadoopSim,
                                    SystemKind::kSpatialSparkSim};

struct Planned {
  double due_s = 0.0;  // offset from the run's start
  std::size_t entry = 0;
  std::size_t tenant = 0;
  Query query;
};

/// The open-loop schedule: Poisson arrivals at the load's rate for
/// `seconds`. Kinds follow a fixed rotation that holds the mix exactly in
/// every group of 20 arrivals (1 join, 3 k-NN, 16 range at the default
/// shares), evenly spaced, so runs on different seeds carry equally bursty
/// join traffic. Joins cycle through the systems; range and k-NN queries
/// pick an entry and go to either side (taxi points or nycb polygons)
/// with equal odds.
std::vector<Planned> plan_schedule(const ServeLoad& load, std::uint64_t seed, double seconds,
                                   const Dataset& left, const Dataset& right,
                                   const sjc::core::JoinQueryConfig& join) {
  constexpr std::size_t kGroup = 20;
  const auto joins_per_group = static_cast<std::size_t>(std::lround(load.join_share * kGroup));
  const auto knn_per_group = static_cast<std::size_t>(std::lround(load.knn_share * kGroup));
  std::vector<QueryKind> rotation(kGroup, QueryKind::kRange);
  for (std::size_t j = 0; j < knn_per_group; ++j) {
    rotation[(2 * j + 1) * kGroup / (2 * knn_per_group)] = QueryKind::kKnn;
  }
  for (std::size_t j = 0; j < joins_per_group; ++j) {
    rotation[j * kGroup / joins_per_group] = QueryKind::kSpatialJoin;
  }
  sjc::Rng rng(seed ^ 0x5e7e5e7eULL);
  std::vector<Planned> plan;
  double due = 0.0;
  std::size_t joins = 0;
  while (true) {
    due += -std::log(1.0 - rng.next_double()) / load.rate_qps;
    if (due >= seconds) break;
    Planned p;
    p.due_s = due;
    p.tenant = plan.size() % load.tenants;
    Query& q = p.query;
    q.kind = rotation[plan.size() % kGroup];
    p.entry = q.kind == QueryKind::kSpatialJoin ? joins++ % 3 : rng.next_below(3);
    q.entry = sjc::core::system_kind_name(kSystems[p.entry]);
    q.left_side = rng.next_below(2) == 0;
    const Envelope extent = (q.left_side ? left : right).extent();
    const double cx = rng.uniform(extent.min_x(), extent.max_x());
    const double cy = rng.uniform(extent.min_y(), extent.max_y());
    if (q.kind == QueryKind::kSpatialJoin) {
      q.join = join;
    } else if (q.kind == QueryKind::kKnn) {
      q.window = Envelope(cx, cy, cx, cy);
      q.k = 1 + rng.next_below(8);
    } else {
      const double hw = extent.width() * 0.005;
      const double hh = extent.height() * 0.005;
      q.window = Envelope(cx - hw, cy - hh, cx + hw, cy + hh);
    }
    plan.push_back(std::move(p));
  }
  return plan;
}

/// Empty when a range or k-NN answer matches a linear scan of the side's
/// envelopes.
std::string check_lookup(const Query& q, const QueryResult& r, const Dataset& side) {
  const auto envs = side.envelopes();
  if (q.kind == QueryKind::kRange) {
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < envs.size(); ++i) {
      if (envs[i].intersects(q.window)) want.push_back(i);
    }
    return want == r.ids ? "" : "range answer differs from the linear scan";
  }
  std::vector<double> dist(envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) dist[i] = envs[i].distance(q.window);
  std::sort(dist.begin(), dist.end());
  const std::size_t k = std::min(q.k, dist.size());
  if (r.hits.size() != k) return "k-NN answer has the wrong size";
  for (std::size_t i = 0; i < k; ++i) {
    if (r.hits[i].distance != dist[i]) return "k-NN distances differ from the brute-force sort";
  }
  return "";
}

/// Empty when a query's answer is right: a join's pairs equal the
/// oracle's, a lookup matches the linear scan, and nothing failed.
std::string check_answer(const Planned& p, const QueryResult& r, const Dataset& left,
                         const Dataset& right, const OracleAnswer& join_answer) {
  if (!r.status.ok()) return "query failed: " + r.status.to_string();
  if (p.query.kind == QueryKind::kSpatialJoin) {
    return judge({sjc::StatusCode::kOk, join_answer}, r.report);
  }
  return check_lookup(p.query, r, p.query.left_side ? left : right);
}

sjc::serving::QueryServiceConfig service_config(std::size_t workers, bool trace) {
  sjc::serving::QueryServiceConfig config;
  config.workers = workers;
  // Admission never rejects at the benchmark's rate: a rejection is a
  // wrong outcome, not back-pressure to be measured here.
  config.max_queue_depth = 1u << 20;
  config.max_queued_per_tenant = 1u << 20;
  config.trace = trace;
  return config;
}

}  // namespace

struct ServeBench::State {
  Dataset left, right;
  sjc::core::JoinQueryConfig join;
  sjc::serving::ResidentCatalog catalog;
  OracleAnswer answer;
  double generate_s = 0.0;
};

ServeBench::ServeBench(bool trace) : state_(std::make_unique<State>()) {
  const auto& def = sjc::core::full_experiments().front();  // taxi x nycb
  sjc::workload::WorkloadConfig wc;
  wc.scale = kServeScale;
  wc.seed = kDefaultSeed;
  const Clock::time_point t0 = Clock::now();
  state_->left = sjc::workload::generate(def.left, wc);
  state_->right = sjc::workload::generate(def.right, wc);
  state_->generate_s = seconds_since(t0);
  state_->join.predicate = def.predicate;
  for (const auto system : kSystems) {
    sjc::serving::ResidentEntryConfig config;
    config.system = system;
    config.build_query = state_->join;
    config.exec.cluster = sjc::cluster::ClusterSpec::workstation();
    config.exec.data_scale = 1.0 / kServeScale;
    config.exec.trace = trace;
    // Resident serving keeps every system's answers; the streaming pipe
    // limit belongs to the batch failure matrix.
    config.hadoop_gis.pipe_capacity_fraction = 0.0;
    state_->catalog.install(sjc::core::system_kind_name(system), state_->left,
                            state_->right, std::move(config));
  }
}

ServeBench::~ServeBench() = default;

const Dataset& ServeBench::left() const { return state_->left; }
const Dataset& ServeBench::right() const { return state_->right; }
double ServeBench::generate_seconds() const { return state_->generate_s; }

OracleAnswer ServeBench::compute_oracle() {
  state_->answer = oracle_join(state_->left, state_->right, state_->join.predicate);
  return state_->answer;
}

void ServeBench::set_oracle(const OracleAnswer& answer) { state_->answer = answer; }

void ServeBench::probe_joins(std::size_t rounds, std::vector<std::vector<double>>& user_s,
                             ErrorTally& errors) {
  State& st = *state_;
  sjc::serving::QueryService service(st.catalog, service_config(1, false));
  user_s.resize(3);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t s = 0; s < 3; ++s) {
      Query q;
      q.kind = QueryKind::kSpatialJoin;
      q.entry = sjc::core::system_kind_name(kSystems[s]);
      q.join = st.join;
      const double user0 = process_times().user_s;
      const QueryResult result = service.submit("probe", q).result.get();
      user_s[s].push_back(process_times().user_s - user0);
      errors.record(result.status.ok() ? judge({sjc::StatusCode::kOk, st.answer}, result.report)
                                       : "probe join failed: " + result.status.to_string());
    }
  }
}

ServeResult ServeBench::run(const ServeLoad& load, std::uint64_t seed, double seconds,
                            SpanLog* log, int parent) {
  State& st = *state_;
  const auto plan = plan_schedule(load, seed, seconds, st.left, st.right, st.join);
  const std::size_t n = plan.size();
  ServeResult out;
  std::vector<std::future<QueryResult>> futures(n);
  std::vector<bool> admitted(n, false);
  std::vector<double> sent(n, 0.0);
  const ProcessTimes cpu0 = process_times();
  double log_start = 0.0;  // the span log's clock at the schedule's start
  {
    sjc::serving::QueryService service(st.catalog, service_config(load.workers, log != nullptr));
    // One generator thread: sleep to each due time, then submit.
    const Clock::time_point start = Clock::now();
    if (log != nullptr) log_start = log->now();
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(plan[i].due_s)));
      sent[i] = seconds_since(start);
      auto submission =
          service.submit("tenant-" + std::to_string(plan[i].tenant), plan[i].query);
      if (submission.status.ok()) {
        futures[i] = std::move(submission.result);
        admitted[i] = true;
      }
    }
    service.drain();
  }
  const ProcessTimes cpu1 = process_times();
  const double cpu = cpu1.cpu_s() - cpu0.cpu_s();
  out.sys_share = cpu > 0.0 ? (cpu1.sys_s - cpu0.sys_s) / cpu : 0.0;

  std::vector<double> done(n, 0.0);
  double service_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Planned& p = plan[i];
    out.gen_late_ms.push_back((sent[i] - p.due_s) * 1e3);
    if (!admitted[i]) {
      ++out.rejected;
      out.errors.record("query rejected at admission");
      continue;
    }
    const QueryResult r = futures[i].get();
    const double latency = due_latency_seconds(p.due_s, sent[i], r.latency_seconds);
    done[i] = p.due_s + latency;
    out.all_ms.push_back(latency * 1e3);
    out.queue_ms.push_back(r.queue_seconds * 1e3);
    service_total += r.service_seconds;
    const bool join = p.query.kind == QueryKind::kSpatialJoin;
    (join ? out.join_ms : out.lookup_ms).push_back(latency * 1e3);
    (join ? out.join_service_ms : out.lookup_service_ms).push_back(r.service_seconds * 1e3);

    out.errors.record(check_answer(p, r, st.left, st.right, st.answer));
    if (join && r.status.ok()) {
      for (const auto& span : r.report.trace.spans) {
        out.task_cpu[std::string(system_key(kSystems[p.entry])) + "." +
                     phase_group(span.phase)] += span.cpu_seconds;
      }
      out.task_attempts += r.report.attempts_used;
    }

    if (log != nullptr) {
      const std::uint64_t id = i + 1;
      const double t0 = log_start + p.due_s;
      const double t_sent = log_start + sent[i];
      const int q = log->add(std::string("query/") + sjc::serving::query_kind_name(p.query.kind) +
                                 "/" + p.query.entry,
                             id, parent, t0, log_start + done[i]);
      log->add("queue", id, q, t_sent, t_sent + r.queue_seconds);
      log->add("service", id, q, t_sent + r.queue_seconds,
               t_sent + r.queue_seconds + r.service_seconds);
    }
  }
  out.mean_service_ms = n > 0 ? service_total / static_cast<double>(n) * 1e3 : 0.0;
  const double last_done = n > 0 ? *std::max_element(done.begin(), done.end()) : 0.0;
  out.achieved_qps = last_done > 0.0 ? static_cast<double>(out.all_ms.size()) / last_done : 0.0;

  for (const auto system : kSystems) {
    const auto entry = st.catalog.find(sjc::core::system_kind_name(system));
    out.cache_hits += entry->prepared_cache().hits();
    out.cache_lookups += entry->prepared_cache().lookups();
  }
  return out;
}

DrainResult ServeBench::drain_blocks(const ServeLoad& load, std::uint64_t seed,
                                     double seconds) {
  State& st = *state_;
  // The schedule's first 16 blocks; later blocks cycle through them.
  const auto plan = plan_schedule(load, seed, 16.0 * static_cast<double>(load.block) / load.rate_qps,
                                  st.left, st.right, st.join);
  const std::size_t blocks = plan.size() / load.block;
  sjc::require(blocks > 0, "drain_blocks: the schedule holds no full block");
  DrainResult out;
  sjc::serving::QueryService service(st.catalog, service_config(load.workers, false));
  std::vector<std::future<QueryResult>> futures(load.block);
  std::vector<QueryResult> results(load.block);
  std::vector<bool> admitted(load.block);
  const Clock::time_point start = Clock::now();
  for (std::size_t b = 0; b == 0 || seconds_since(start) < seconds; ++b) {
    const Planned* block = plan.data() + (b % blocks) * load.block;
    // Timed: submit the whole block at once, wait for its last answer.
    const ProcessTimes cpu0 = process_times();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < load.block; ++i) {
      auto submission =
          service.submit("tenant-" + std::to_string(block[i].tenant), block[i].query);
      admitted[i] = submission.status.ok();
      if (admitted[i]) futures[i] = std::move(submission.result);
    }
    for (std::size_t i = 0; i < load.block; ++i) {
      if (admitted[i]) results[i] = futures[i].get();
    }
    out.wall_s.push_back(seconds_since(t0));
    out.cpu_s.push_back(process_times().cpu_s() - cpu0.cpu_s());
    for (std::size_t i = 0; i < load.block; ++i) {
      out.errors.record(admitted[i] ? check_answer(block[i], results[i], st.left, st.right,
                                                   st.answer)
                                    : "query rejected at admission");
    }
  }
  return out;
}

}  // namespace perfbench
