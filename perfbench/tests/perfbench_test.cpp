// Self-test of the benchmark's own machinery: percentiles and their
// sample counts, seed-determinism of the generated inputs, the output
// oracle (a corrupted output must fail it) and span self time.
#include <gtest/gtest.h>

#include <stdexcept>

#include "oracle.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using hmm::run::Point;

Point small_point(const char* algorithm, const char* model, std::int64_t n,
                  std::uint64_t seed) {
  Point p;
  p.algorithm = algorithm;
  p.model = model;
  p.n = n;
  p.m = 8;
  p.p = 64;
  p.d = 4;
  p.w = 16;
  p.l = 20;
  p.seed = seed;
  return p;
}

TEST(Percentile, InterpolatesBetweenRanksAndCountsTheTail) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // order must not matter
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.samples, 100);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.p90, 90.1);
  EXPECT_DOUBLE_EQ(s.p99, 99.01);
  EXPECT_EQ(s.beyond_p90, 10);
  EXPECT_EQ(s.beyond_p99, 1);
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 100.0), 2.0);
}

TEST(Percentile, RejectsEmptySamplesAndBadQuantiles) {
  EXPECT_THROW(median({}), std::invalid_argument);
  EXPECT_THROW(summarize({}), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Inputs, SameSeedSameInputsOtherSeedOtherInputs) {
  for (const char* alg : {"sum", "scan", "sort", "conv", "matmul"}) {
    const std::int64_t n = std::string(alg) == "matmul" ? 16 : 1024;
    hmm::alg::WorkloadCache c1, c2, c3;
    const PointInputs a = point_inputs(small_point(alg, "hmm", n, 7), c1);
    const PointInputs b = point_inputs(small_point(alg, "hmm", n, 7), c2);
    const PointInputs c = point_inputs(small_point(alg, "hmm", n, 8), c3);
    EXPECT_EQ(*a.a, *b.a) << alg;
    EXPECT_NE(*a.a, *c.a) << alg;
    if (a.b) {
      EXPECT_EQ(*a.b, *b.b) << alg;
    }
    EXPECT_EQ(host_reference(small_point(alg, "hmm", n, 7), a).output,
              host_reference(small_point(alg, "hmm", n, 7), b).output)
        << alg;
  }
}

TEST(Oracle, SimulatedOutputsMatchTheHostReference) {
  const std::vector<Point> points = {
      small_point("sum", "hmm", 1024, 1),   small_point("sum", "umm", 1024, 1),
      small_point("scan", "hmm", 1024, 2),  small_point("conv", "hmm", 256, 3),
      small_point("sort", "hmm", 1024, 4),  small_point("matmul", "hmm", 16, 5),
      small_point("matmul", "umm", 16, 5)};
  for (const Point& p : points) {
    hmm::alg::WorkloadCache cache;
    const PointInputs in = point_inputs(p, cache);
    const Reference ref = host_reference(p, in);
    const Simulated sim = simulate(p, in);
    EXPECT_TRUE(output_correct(p, in, ref, sim.output)) << p.algorithm;
    EXPECT_GT(issue_slots(sim.report), 0) << p.algorithm;
    // run_point sees the same inputs and prints the reference summary.
    const hmm::run::PointOutcome out = hmm::run::run_point(p, cache);
    EXPECT_EQ(out.summary, ref.summary) << p.algorithm;
    EXPECT_EQ(out.time, sim.report.makespan) << p.algorithm;
  }
}

TEST(Oracle, CorruptedOutputsFail) {
  const Point conv = small_point("conv", "hmm", 256, 3);
  hmm::alg::WorkloadCache cache;
  const PointInputs in = point_inputs(conv, cache);
  const Reference ref = host_reference(conv, in);
  std::vector<Word> z = simulate(conv, in).output;
  ASSERT_TRUE(output_correct(conv, in, ref, z));
  z[z.size() / 2] += 1;
  EXPECT_FALSE(output_correct(conv, in, ref, z));
  z.pop_back();
  EXPECT_FALSE(output_correct(conv, in, ref, z));

  // A sorted output that lost one value and repeated another is still
  // nondecreasing; only the multiset check catches it.
  const std::vector<Word> input = {5, 1, 4, 1, 3};
  EXPECT_TRUE(is_sorted_permutation(input, std::vector<Word>{1, 1, 3, 4, 5}));
  EXPECT_FALSE(is_sorted_permutation(input, std::vector<Word>{1, 1, 3, 3, 5}));
  EXPECT_FALSE(is_sorted_permutation(input, std::vector<Word>{1, 3, 1, 4, 5}));
  EXPECT_NE(summary_for("sum", std::vector<Word>{42}),
            summary_for("sum", std::vector<Word>{43}));
}

TEST(Oracle, FastForwardOffSerialReportIsIdentical) {
  Point p = small_point("sort", "hmm", 1024, 9);
  p.threads = 2;
  hmm::alg::WorkloadCache cache;
  const PointInputs in = point_inputs(p, cache);
  const Simulated timed = simulate(p, in);
  p.threads = 1;
  p.fast_forward = false;
  EXPECT_TRUE(simulate(p, in).report == timed.report);
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer t(true);
  const Clock::time_point t0{};
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::int64_t parent = t.record("parent", -1, 0, at(0), at(10));
  t.record("child", parent, 0, at(2), at(4));
  t.record("child", parent, 0, at(3), at(6));  // overlaps the first
  t.record("child", parent, 0, at(9), at(12)); // clipped at the parent end
  const std::vector<double> self = t.self_ms("parent");
  ASSERT_EQ(self.size(), 1u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(t.total_ms("child"), 2.0 + 3.0 + 3.0);

  Tracer off(false);
  EXPECT_EQ(off.record("x", -1, 0, at(0), at(1)), -1);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
