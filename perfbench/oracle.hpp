// The output oracle: host reference results for every point the
// benchmark runs, and the driver-level simulation that exposes a point's
// full output and RunReport (run::run_point returns only a summary).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "alg/workload.hpp"
#include "machine/observer.hpp"
#include "machine/report.hpp"
#include "run/point.hpp"

namespace perfbench {

using hmm::Word;

/// The inputs of one point, fetched from the workload cache under the
/// same keys run::run_point uses, so both see the same buffers.
struct PointInputs {
  std::shared_ptr<const std::vector<Word>> a;
  std::shared_ptr<const std::vector<Word>> b;  ///< conv signal, matmul B
};

PointInputs point_inputs(const hmm::run::Point& point,
                         hmm::alg::WorkloadCache& cache);

/// What the host computes for a point: the full output and the one-line
/// summary run::run_point reports for it.
struct Reference {
  std::vector<Word> output;
  std::string summary;
};

/// Host reference kernels, written independently of src/alg.
Reference host_reference(const hmm::run::Point& point,
                         const PointInputs& inputs);

/// Sort check: `output` is nondecreasing and the same multiset as `input`.
bool is_sorted_permutation(std::span<const Word> input,
                           std::span<const Word> output);

/// The summary line run::run_point prints for `algorithm` given its
/// full output.
std::string summary_for(const std::string& algorithm,
                        std::span<const Word> output);

/// True when a point's full simulated output is correct.
bool output_correct(const hmm::run::Point& point, const PointInputs& inputs,
                    const Reference& reference,
                    std::span<const Word> output);

/// One point through the alg drivers run::run_point dispatches to, with
/// point.fast_forward and point.threads applied and `observer` attached.
struct Simulated {
  std::vector<Word> output;
  hmm::RunReport report;
};

Simulated simulate(const hmm::run::Point& point, const PointInputs& inputs,
                   hmm::EngineObserver* observer = nullptr);

/// Simulated warp instructions of one run (sum of exec[].issue_slots).
std::int64_t issue_slots(const hmm::RunReport& report);

}  // namespace perfbench
