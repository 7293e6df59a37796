#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

double sorted_percentile(const std::vector<double>& sorted, double q) {
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::int64_t count_above(const std::vector<double>& sorted, double v) {
  return static_cast<std::int64_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), v));
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q >= 0.0 && q <= 100.0)) {
    throw std::invalid_argument("percentile outside [0, 100]");
  }
  std::sort(values.begin(), values.end());
  return sorted_percentile(values, q);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

LatencySummary summarize(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("summary of no samples");
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  LatencySummary s;
  s.samples = static_cast<std::int64_t>(sorted.size());
  s.p50 = sorted_percentile(sorted, 50.0);
  s.p90 = sorted_percentile(sorted, 90.0);
  s.p99 = sorted_percentile(sorted, 99.0);
  s.beyond_p90 = count_above(sorted, s.p90);
  s.beyond_p99 = count_above(sorted, s.p99);
  return s;
}

std::string tail_note(const LatencySummary& s) {
  char line[200];
  std::snprintf(line, sizeof line,
                "op latency: n=%lld, %lld beyond p90; op_ms_p99 = %.4f ms with "
                "%lld beyond it%s",
                static_cast<long long>(s.samples),
                static_cast<long long>(s.beyond_p90), s.p99,
                static_cast<long long>(s.beyond_p99),
                s.beyond_p99 < 10 ? " (too few to report it)" : "");
  return line;
}

}  // namespace perfbench
