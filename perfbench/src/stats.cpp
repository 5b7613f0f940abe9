#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "util/bench_io.hpp"

namespace perfbench {

namespace {

// Nearest rank of the q-quantile among n samples, 1-based. The epsilon
// keeps q * n that is integral in exact arithmetic (0.9 * 100) from
// rounding up a rank.
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::clamp(r, 1.0, static_cast<double>(n)));
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinSamplesBeyond;
}

double due_latency_seconds(double due_s, double sent_s, double after_send_s) {
  return (sent_s - due_s) + after_send_s;
}

ProcessTimes process_times() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcessTimes t;
  t.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  t.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  return t;
}

double peak_rss_mb() {
  return static_cast<double>(sjc::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
