#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

namespace {

// FNV-1a over the canonical text of the modeled quantities.
class Digest {
 public:
  void text(const std::string& s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) { text(std::to_string(v)); }
  void real(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);  // exact bits, NaN-safe
    text(buf);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::string judge(const Expectation& want, const RunReport& report) {
  if (report.status.code() != want.status) {
    return std::string("status ") + sjc::status_code_name(report.status.code()) +
           ", expected " + sjc::status_code_name(want.status);
  }
  if (!report.status.ok()) return "";
  if (report.result_count != want.answer.count || report.result_hash != want.answer.hash) {
    return "pairs " + std::to_string(report.result_count) + " differ from the oracle's " +
           std::to_string(want.answer.count);
  }
  return "";
}

void ErrorTally::record(const std::string& reason) {
  ++attempted;
  if (reason.empty()) return;
  ++failed;
  if (reasons.size() < 8) reasons.push_back(reason);
}

sjc::StatusCode parse_status_code(const std::string& name) {
  for (int c = 0; c <= static_cast<int>(sjc::StatusCode::kInternal); ++c) {
    const auto code = static_cast<sjc::StatusCode>(c);
    if (name == sjc::status_code_name(code)) return code;
  }
  throw sjc::InvalidArgument("unknown status code name: " + name);
}

std::vector<OutcomeRow> load_outcome_table(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw sjc::InvalidArgument("cannot open expected-outcome table " + path);
  std::vector<OutcomeRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    OutcomeRow row;
    std::string status, digest;
    if (!std::getline(fields, row.experiment, '\t') ||
        !std::getline(fields, row.system, '\t') ||
        !std::getline(fields, row.cluster, '\t') || !std::getline(fields, status, '\t') ||
        !std::getline(fields, digest, '\t')) {
      throw sjc::InvalidArgument("malformed expected-outcome row: " + line);
    }
    row.status = parse_status_code(status);
    row.digest = std::stoull(digest, nullptr, 16);
    rows.push_back(std::move(row));
  }
  return rows;
}

const OutcomeRow* find_outcome(const std::vector<OutcomeRow>& table,
                               const std::string& experiment, SystemKind system,
                               const std::string& cluster) {
  const std::string name = sjc::core::system_kind_name(system);
  for (const auto& row : table) {
    if (row.experiment == experiment && row.system == name && row.cluster == cluster) {
      return &row;
    }
  }
  return nullptr;
}

std::uint64_t modeled_digest(const RunReport& report) {
  Digest d;
  d.text(sjc::status_code_name(report.status.code()));
  d.u64(report.result_count);
  d.u64(report.result_hash);
  d.real(report.index_a_seconds);
  d.real(report.index_b_seconds);
  d.real(report.join_seconds);
  d.real(report.total_seconds);
  d.u64(report.peak_memory_bytes);
  d.u64(report.attempts_used);
  for (const auto& p : report.metrics.phases()) {
    d.text(p.name);
    d.real(p.sim_seconds);
    d.u64(p.bytes_read);
    d.u64(p.bytes_written);
    d.u64(p.bytes_shuffled);
    d.u64(p.task_count);
    d.u64(p.max_task_pipe_bytes);
    d.u64(p.task_attempts);
    d.u64(p.speculative_clones);
    d.real(p.wasted_seconds);
    d.u64(p.recomputed_partitions);
    d.u64(p.rereplicated_bytes);
    d.u64(p.commits_published);
    d.u64(p.commits_rejected);
    d.u64(p.attempts_aborted);
    d.u64(p.nodes_quarantined);
  }
  for (const auto& [name, value] : report.counters.snapshot()) {
    // Racing misses and LRU eviction order follow thread interleaving.
    if (name == "join.prepared_cache_hits" || name == "join.prepared_cache_misses") continue;
    d.text(name);
    d.u64(value);
  }
  return d.value();
}

}  // namespace perfbench
