#include "layers.hpp"

#include <algorithm>

#include "alg/plans.hpp"
#include "analysis/static/evaluate.hpp"
#include "machine/machine.hpp"
#include "mm/batch_cost.hpp"
#include "mm/pattern_cache.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace {

using hmm::run::Point;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Re-prices every memory batch of the observed runs outside the engine:
/// once through profile_batch (the stamped pass) and once through the
/// pattern-key build plus PatternCache::find the engine does before it.
class BatchRepricer final : public hmm::EngineObserver {
 public:
  void on_run_begin(const hmm::Machine& machine) override {
    width_ = machine.width();
  }

  void on_memory_batch(const hmm::MemoryBatchEvent& event) override {
    const hmm::MemoryGeometry geom(width_);
    ++batches_;
    // Each timing averages kReps calls so the clock read stays small
    // against a call of a few hundred nanoseconds.
    auto t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      (void)hmm::profile_batch(geom, event.batch, scratch_);
    }
    auto t1 = Clock::now();
    price_ns_ += ns(t0, t1) / kReps;

    bool hit = false;
    hmm::PatternKeyInfo info;
    t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      info = hmm::build_pattern_key(geom, event.batch, key_);
      hit = cache_.find(info.cache_fp, key_, found_);
    }
    t1 = Clock::now();
    find_ns_ += ns(t0, t1) / kReps;
    if (!hit) {
      cache_.insert(info.cache_fp, key_,
                    hmm::profile_batch(geom, event.batch, scratch_));
    }
  }

  std::int64_t batches() const { return batches_; }
  std::size_t patterns() const { return cache_.size(); }
  double price_ns_per_batch() const {
    return ratio(price_ns_, static_cast<double>(batches_));
  }
  double find_ns_per_batch() const {
    return ratio(find_ns_, static_cast<double>(batches_));
  }

 private:
  static constexpr int kReps = 4;
  static double ns(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  }

  std::int64_t width_ = 1;
  std::int64_t batches_ = 0;
  double price_ns_ = 0.0;
  double find_ns_ = 0.0;
  hmm::BatchCostScratch scratch_;
  hmm::PatternCache cache_;
  std::vector<std::uint64_t> key_;
  hmm::BatchProfile found_;
};

/// Host ms of one simulate() call, recorded as a span.
double timed_run(const Point& p, const PointInputs& in,
                 hmm::EngineObserver* observer, Tracer& tracer,
                 const char* span, std::int64_t op, Simulated* out = nullptr) {
  const auto t0 = Clock::now();
  Simulated s = simulate(p, in, observer);
  const auto t1 = Clock::now();
  tracer.record(span, -1, op, t0, t1);
  if (out != nullptr) *out = std::move(s);
  return ms_between(t0, t1);
}

}  // namespace

void add_layer_metrics(const std::vector<LayerPoint>& points, Tracer& tracer,
                       Result& result) {
  std::int64_t issue = 0, makespan = 0, global_stages = 0, shared_stages = 0,
               barriers = 0, replayed = 0, hits = 0, misses = 0, bailouts = 0,
               patterns = 0, identical = 0, ops = 0, planned_ops = 0;
  double serial_ms = 0.0, threads2_ms = 0.0, ff_off_ms = 0.0,
         registry_ms = 0.0, timed_ms = 0.0, static_ms = 0.0;
  hmm::telemetry::MetricsRegistry registry;
  BatchRepricer repricer;

  for (std::size_t i = 0; i < points.size(); ++i) {
    const LayerPoint& lp = points[i];
    const auto op = static_cast<std::int64_t>(i);
    const hmm::RunReport& r = lp.timed->report;
    issue += issue_slots(r);
    makespan += r.makespan;
    global_stages += r.global_pipeline.stages;
    for (const auto& s : r.shared_pipelines) shared_stages += s.stages;
    barriers += r.barrier_releases;
    replayed += r.fast_forward.replayed_rounds;
    hits += r.fast_forward.cache_hits;
    misses += r.fast_forward.cache_misses;
    bailouts += r.fast_forward.bailouts;
    patterns += r.fast_forward.patterns;

    // Invariance: fast-forward off on the serial engine.
    Point reference = lp.point;
    reference.fast_forward = false;
    reference.threads = 1;
    Simulated plain;
    const double plain_ms = timed_run(reference, *lp.inputs, nullptr, tracer,
                                      "machine.invariance", op, &plain);
    const bool same = plain.report == r &&
                      output_correct(lp.point, *lp.inputs, *lp.reference,
                                     plain.output);
    result.tally(same);
    if (same) ++identical;

    // threads_gain: serial over two engine workers, fast-forward on; the
    // timed configuration supplies whichever side it already is.
    Point other = lp.point;
    other.threads = lp.point.threads == 1 ? 2 : 1;
    const double other_ms =
        timed_run(other, *lp.inputs, nullptr, tracer, "machine.threads", op);
    const double serial = lp.point.threads == 1 ? lp.op_ms : other_ms;
    serial_ms += serial;
    threads2_ms += lp.point.threads == 1 ? other_ms : lp.op_ms;
    ff_off_ms += plain_ms;
    timed_ms += lp.op_ms;

    registry_ms += timed_run(lp.point, *lp.inputs, &registry, tracer,
                             "telemetry.registry", op);
    timed_run(lp.point, *lp.inputs, &repricer, tracer, "mm.reprice", op);

    hmm::alg::PlanPoint pp{lp.point.algorithm, lp.point.model, lp.point.n,
                           lp.point.m,         lp.point.p,     lp.point.w,
                           lp.point.l,         lp.point.d,     lp.point.seed};
    const auto t0 = Clock::now();
    const auto plan = hmm::alg::build_access_plan(pp);
    if (plan) {
      const hmm::analysis::StaticReport rep = hmm::analysis::evaluate(*plan);
      (void)rep;
    }
    const auto t1 = Clock::now();
    tracer.record("analysis.static", -1, op, t0, t1);
    static_ms += ms_between(t0, t1);
    ops += lp.ops;
    if (plan) planned_ops += lp.ops;
  }
  const double n = static_cast<double>(points.size());

  result.add("machine.issue_slots", static_cast<double>(issue), "count");
  result.add("machine.makespan_tu", static_cast<double>(makespan), "tu");
  result.add("machine.global_stages", static_cast<double>(global_stages), "count");
  result.add("machine.shared_stages", static_cast<double>(shared_stages), "count");
  result.add("machine.barrier_releases", static_cast<double>(barriers), "count");
  result.add("machine.ff_replay_share",
             ratio(static_cast<double>(replayed), static_cast<double>(issue)),
             "ratio");
  result.add("machine.cache_hit_ratio",
             ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
             "ratio");
  result.add("machine.ff_bailouts_per_pattern",
             ratio(static_cast<double>(bailouts), static_cast<double>(patterns)),
             "ratio");
  result.add("machine.threads_gain", ratio(serial_ms, threads2_ms), "ratio");
  // Both sides serial: the invariance runs against fast-forward on.
  result.add("machine.ff_gain", ratio(ff_off_ms, serial_ms), "ratio");
  result.add("machine.identical_reports", ratio(static_cast<double>(identical), n),
             "ratio");

  result.add("mm.price_ns_per_batch", repricer.price_ns_per_batch(), "ns");
  result.add("mm.cache_find_ns_per_batch", repricer.find_ns_per_batch(), "ns");
  result.add("mm.batches", static_cast<double>(repricer.batches()), "count");
  result.add("mm.distinct_patterns", static_cast<double>(repricer.patterns()),
             "count");

  result.add("analysis.static_ms", static_ms / n, "ms", static_cast<std::int64_t>(n));
  result.add("analysis.static_share", ratio(static_ms, timed_ms), "ratio");
  result.add("analysis.plan_coverage",
             ratio(static_cast<double>(planned_ops), static_cast<double>(ops)),
             "ratio");

  const hmm::MetricsSnapshot m = registry.snapshot();
  result.add("telemetry.latency_hiding", m.latency_hiding, "ratio");
  result.add("telemetry.global_occupancy", m.global_occupancy, "ratio");
  result.add("telemetry.shared_occupancy", m.shared_occupancy, "ratio");
  result.add("telemetry.conflict_degree_max",
             static_cast<double>(m.conflict_degree.max_stages), "count");
  result.add("telemetry.memory_stall_cycles",
             static_cast<double>(m.memory_stall_cycles), "tu");
  result.add("telemetry.barrier_stall_cycles",
             static_cast<double>(m.barrier_stall_cycles), "tu");
  result.add("telemetry.observer_overhead", ratio(registry_ms, timed_ms), "ratio");
}

}  // namespace perfbench
