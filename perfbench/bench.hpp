// Shared vocabulary of the hmmbench workloads: run options, the metric
// list a run prints, and the entry point of each workload family.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Set-ups per timed run; setup_s is their median.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;           ///< per-layer (traced) run instead of timed
  std::string hmmsimd;          ///< daemon binary, for service-mix
  std::string run_dir = ".";    ///< sockets and result files go here
  std::int64_t corrupt_op = -1; ///< test hook: falsify this timed op's output
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< timing sample count (0: count or ratio)
};

/// What one run reports.  `attempted` counts timed ops plus every
/// reference and invariance check; `failed` those that went wrong.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< extra human-readable lines

  void add(std::string name, double value, std::string unit,
           std::int64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void tally(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// sum-global, conv-shared, sort-sweep: run::run_point ops.
bool is_engine_workload(const std::string& name);
Result run_engine_workload(const Options& options);

/// service-mix: closed-loop hmm::service::Client connections to hmmsimd.
Result run_service_mix(const Options& options);

/// Peak resident set (VmHWM) of a process in MiB; pid 0 is this process.
double peak_rss_mb(long pid = 0);

struct HostRecord {
  long nproc = 0;
  /// Throughput of nproc busy threads over that of one, from a short
  /// CPU-burn probe (nproc overstates it on a shared host).
  double effective_parallelism = 0.0;
  std::string compiler;
  std::string build_type;
};

HostRecord probe_host();

}  // namespace perfbench
