// Order statistics for the benchmark's latency samples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The q-th percentile (0 <= q <= 100) of `values`, interpolated linearly
/// between the two closest ranks (the numpy / R type-7 definition).
/// Throws std::invalid_argument on an empty sample or q out of range.
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Median and tail of one latency sample, each with how many samples lie
/// strictly above it: a percentile is only reported where at least ten
/// samples lie beyond it.
struct LatencySummary {
  std::int64_t samples = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::int64_t beyond_p90 = 0;
  std::int64_t beyond_p99 = 0;
};

LatencySummary summarize(const std::vector<double>& values);

/// One line with the tail of a latency summary: how many samples lie
/// beyond p90, and p99 with its own count (meaningful at 10 or more).
std::string tail_note(const LatencySummary& s);

}  // namespace perfbench
