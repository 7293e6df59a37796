#include "oracle.hpp"

#include <algorithm>
#include <stdexcept>

#include "alg/convolution.hpp"
#include "alg/matmul.hpp"
#include "alg/prefix_sums.hpp"
#include "alg/sort.hpp"
#include "alg/sum.hpp"
#include "machine/machine.hpp"

namespace perfbench {

namespace {

using hmm::run::Point;

/// Engine threads for the drivers, which build their Machines internally
/// (the same thread-default hook run::run_point sets).
class EngineThreadsScope {
 public:
  explicit EngineThreadsScope(std::int64_t threads)
      : saved_(hmm::Machine::thread_engine_threads()) {
    hmm::Machine::set_thread_engine_threads(threads);
  }
  ~EngineThreadsScope() { hmm::Machine::set_thread_engine_threads(saved_); }
  EngineThreadsScope(const EngineThreadsScope&) = delete;
  EngineThreadsScope& operator=(const EngineThreadsScope&) = delete;

 private:
  std::int64_t saved_;
};

Word ref_sum(std::span<const Word> xs) {
  Word s = 0;
  for (const Word x : xs) s += x;
  return s;
}

std::vector<Word> ref_scan(std::span<const Word> xs) {
  std::vector<Word> out(xs.size());
  Word s = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = s += xs[i];
  return out;
}

std::vector<Word> ref_conv(std::span<const Word> a, std::span<const Word> x) {
  const std::size_t n = x.size() - a.size() + 1;
  std::vector<Word> z(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) z[i] += a[j] * x[i + j];
  }
  return z;
}

std::vector<Word> ref_matmul(std::span<const Word> a, std::span<const Word> b,
                             std::int64_t rows) {
  const auto r = static_cast<std::size_t>(rows);
  std::vector<Word> c(r * r, 0);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t k = 0; k < r; ++k) {
      for (std::size_t j = 0; j < r; ++j) c[i * r + j] += a[i * r + k] * b[k * r + j];
    }
  }
  return c;
}

}  // namespace

PointInputs point_inputs(const Point& point, hmm::alg::WorkloadCache& cache) {
  PointInputs in;
  if (point.algorithm == "sum" || point.algorithm == "scan" ||
      point.algorithm == "sort") {
    in.a = cache.random_words(point.n, point.seed);
  } else if (point.algorithm == "conv") {
    in.a = cache.random_words(point.m, point.seed);
    in.b = cache.random_words(hmm::alg::conv_signal_length(point.m, point.n),
                              point.seed + 1);
  } else if (point.algorithm == "matmul") {
    in.a = cache.random_words(point.n * point.n, point.seed);
    in.b = cache.random_words(point.n * point.n, point.seed + 1);
  } else {
    throw std::invalid_argument("no oracle for algorithm " + point.algorithm);
  }
  return in;
}

bool is_sorted_permutation(std::span<const Word> input,
                           std::span<const Word> output) {
  if (input.size() != output.size()) return false;
  if (!std::is_sorted(output.begin(), output.end())) return false;
  std::vector<Word> expected(input.begin(), input.end());
  std::sort(expected.begin(), expected.end());
  return std::equal(expected.begin(), expected.end(), output.begin());
}

std::string summary_for(const std::string& algorithm,
                        std::span<const Word> output) {
  if (output.empty()) return "(no output)";
  if (algorithm == "sum") return "sum = " + std::to_string(output.front());
  if (algorithm == "scan") {
    return "last prefix = " + std::to_string(output.back());
  }
  if (algorithm == "conv") return "z[0] = " + std::to_string(output.front());
  if (algorithm == "sort") {
    return "min = " + std::to_string(output.front()) +
           ", max = " + std::to_string(output.back());
  }
  if (algorithm == "matmul") {
    return "C[0][0] = " + std::to_string(output.front());
  }
  throw std::invalid_argument("no summary for algorithm " + algorithm);
}

Reference host_reference(const Point& point, const PointInputs& in) {
  Reference ref;
  const std::string& alg = point.algorithm;
  if (alg == "sum") {
    ref.output = {ref_sum(*in.a)};
  } else if (alg == "scan") {
    ref.output = ref_scan(*in.a);
  } else if (alg == "conv") {
    ref.output = ref_conv(*in.a, *in.b);
  } else if (alg == "sort") {
    ref.output = *in.a;
    std::sort(ref.output.begin(), ref.output.end());
  } else if (alg == "matmul") {
    ref.output = ref_matmul(*in.a, *in.b, point.n);
  } else {
    throw std::invalid_argument("no oracle for algorithm " + alg);
  }
  ref.summary = summary_for(alg, ref.output);
  return ref;
}

bool output_correct(const Point& point, const PointInputs& inputs,
                    const Reference& reference, std::span<const Word> output) {
  if (point.algorithm == "sort") {
    return is_sorted_permutation(*inputs.a, output);
  }
  return std::equal(reference.output.begin(), reference.output.end(),
                    output.begin(), output.end());
}

Simulated simulate(const Point& o, const PointInputs& in,
                   hmm::EngineObserver* observer) {
  namespace alg = hmm::alg;
  const EngineThreadsScope threads(o.threads);
  const bool hmm_model = o.model == "hmm";
  if (hmm_model && (o.p % o.d != 0 || o.p < o.d)) {
    throw std::invalid_argument("p must be a positive multiple of d");
  }
  const std::int64_t pd = hmm_model ? o.p / o.d : 0;
  const bool ff = o.fast_forward;
  Simulated s;
  if (o.algorithm == "sum") {
    auto r = hmm_model ? alg::sum_hmm(*in.a, o.d, pd, o.w, o.l, observer, ff)
                       : alg::sum_umm(*in.a, o.p, o.w, o.l, observer, ff);
    s.output = {r.sum};
    s.report = std::move(r.report);
  } else if (o.algorithm == "scan") {
    auto r = hmm_model
                 ? alg::prefix_sums_hmm(*in.a, o.d, pd, o.w, o.l, observer, ff)
                 : alg::prefix_sums_umm(*in.a, o.p, o.w, o.l, observer, ff);
    s.output = std::move(r.prefix);
    s.report = std::move(r.report);
  } else if (o.algorithm == "conv") {
    auto r = hmm_model ? alg::convolution_hmm(*in.a, *in.b, o.d, pd, o.w, o.l,
                                              observer, ff)
                       : alg::convolution_umm(*in.a, *in.b, o.p, o.w, o.l,
                                              observer, ff);
    s.output = std::move(r.z);
    s.report = std::move(r.report);
  } else if (o.algorithm == "sort") {
    auto r = hmm_model ? alg::sort_hmm(*in.a, o.d, pd, o.w, o.l, observer, ff)
                       : alg::sort_umm(*in.a, o.p, o.w, o.l, observer, ff);
    s.output = std::move(r.sorted);
    s.report = std::move(r.report);
  } else if (o.algorithm == "matmul") {
    auto r = hmm_model
                 ? alg::matmul_hmm_tiled(*in.a, *in.b, o.n, o.d, pd, o.w, o.l,
                                         std::min<std::int64_t>(o.n, o.w),
                                         observer, ff)
                 : alg::matmul_umm(*in.a, *in.b, o.n, o.p, o.w, o.l, observer,
                                   ff);
    s.output = std::move(r.c);
    s.report = std::move(r.report);
  } else {
    throw std::invalid_argument("cannot simulate algorithm " + o.algorithm);
  }
  return s;
}

std::int64_t issue_slots(const hmm::RunReport& report) {
  std::int64_t total = 0;
  for (const hmm::ExecStats& e : report.exec) total += e.issue_slots;
  return total;
}

}  // namespace perfbench
