// The three engine workloads: ops are run::run_point calls, issued one at
// a time (sum-global, conv-shared) or as hmmsim sweeps through
// run::SweepRunner (sort-sweep).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "core/rng.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "run/sweep.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using hmm::run::Point;

struct EngineWorkload {
  std::vector<Point> points;      ///< distinct points, timed configuration
  std::vector<std::size_t> round; ///< one round of ops (indices into points)
  std::int64_t jobs = 1;          ///< SweepRunner workers per round
  bool shuffle = false;           ///< reorder each round from the seed
  /// An op is a whole round (one sweep) instead of one point.  A sweep's
  /// wall time is what hmmsim users wait for, and the median of its six
  /// equally frequent point sizes would fall on the gap between two of
  /// them.
  bool sweep_op = false;
};

Point hmm_point(const char* algorithm, std::int64_t n, std::int64_t d,
                std::int64_t p, std::int64_t threads, std::uint64_t seed) {
  Point pt;
  pt.algorithm = algorithm;
  pt.model = "hmm";
  pt.n = n;
  pt.d = d;
  pt.p = p;
  pt.w = 32;
  pt.l = 400;
  pt.threads = threads;
  pt.seed = seed;
  return pt;
}

// Both one-at-a-time workloads mix a small and a large size 3:1, so that
// the median op lies inside the small size's latencies and p90 inside the
// large one's; at 1:1 both percentiles would sit on the gap between them.
EngineWorkload engine_workload(const std::string& name, std::uint64_t seed) {
  EngineWorkload wl;
  if (name == "sum-global") {
    for (const std::int64_t n : {1 << 18, 1 << 20}) {
      wl.points.push_back(hmm_point("sum", n, 64, 4096, 2, seed));
    }
    wl.round = {0, 0, 0, 1};
    wl.shuffle = true;
  } else if (name == "conv-shared") {
    for (const std::int64_t n : {16384, 32768}) {
      Point pt = hmm_point("conv", n, 64, 4096, 2, seed);
      pt.m = 64;
      wl.points.push_back(pt);
    }
    wl.round = {0, 0, 0, 1};
    wl.shuffle = true;
  } else if (name == "sort-sweep") {
    // Row-major grid order, as hmmsim expands --n 4096,8192,16384 --d 4,16.
    // At p = 2048 fast-forward replays under 1% of issue slots (at 512,
    // over half), so this stays the workload where replay does little.
    for (const std::int64_t n : {4096, 8192, 16384}) {
      for (const std::int64_t d : {4, 16}) {
        wl.points.push_back(hmm_point("sort", n, d, 2048, 1, seed));
      }
    }
    wl.round.resize(wl.points.size());
    std::iota(wl.round.begin(), wl.round.end(), std::size_t{0});
    wl.jobs = 2;
    wl.sweep_op = true;
  } else {
    throw std::invalid_argument("unknown engine workload " + name);
  }
  return wl;
}

/// Everything set-up builds: inputs in the cache run_point reads, host
/// references, and each point's run in the timed configuration.
struct Fixture {
  hmm::alg::WorkloadCache cache;
  std::vector<PointInputs> inputs;
  std::vector<Reference> refs;
  std::vector<Simulated> timed;
  std::vector<char> timed_ok;  ///< full output matched the reference
};

std::unique_ptr<Fixture> make_fixture(const EngineWorkload& wl,
                                      Tracer& tracer) {
  auto fx = std::make_unique<Fixture>();
  const ScopedSpan setup(tracer, "bench.setup");
  {
    const ScopedSpan input(tracer, "alg.input", setup.id());
    for (const Point& p : wl.points) {
      fx->inputs.push_back(point_inputs(p, fx->cache));
      fx->refs.push_back(host_reference(p, fx->inputs.back()));
    }
  }
  {
    const ScopedSpan ref(tracer, "alg.reference", setup.id());
    fx->timed.resize(wl.points.size());
    fx->timed_ok.assign(wl.points.size(), 0);
    hmm::run::SweepRunner(wl.jobs).for_each(
        static_cast<std::int64_t>(wl.points.size()), [&](std::int64_t i) {
          const auto k = static_cast<std::size_t>(i);
          fx->timed[k] = simulate(wl.points[k], fx->inputs[k]);
          fx->timed_ok[k] = output_correct(wl.points[k], fx->inputs[k],
                                           fx->refs[k], fx->timed[k].output);
        });
  }
  {
    const ScopedSpan warm(tracer, "bench.warmup", setup.id());
    hmm::run::run_point(wl.points.front(), fx->cache);
  }
  return fx;
}

struct OpSample {
  std::size_t point = 0;
  double ms = 0.0;
  bool ok = false;
  bool traced = false;
};

struct Loop {
  std::vector<OpSample> ops;
  std::vector<double> round_s;  ///< wall time of each round
};

/// Run whole rounds until `seconds` have passed.  Each op is checked
/// against the host reference summary and the reference run's simulated
/// time and global stages.  With `traced`, every other round records its
/// spans there, so traced and untraced rounds see the same host drift.
Loop run_rounds(const EngineWorkload& wl, Fixture& fx, double seconds,
                hmm::Rng& rng, Tracer* traced, std::int64_t corrupt_op) {
  Loop loop;
  Tracer off(false);
  const hmm::run::SweepRunner pool(wl.jobs);
  const auto start = Clock::now();
  std::int64_t round_index = 0;
  while (ms_between(start, Clock::now()) < seconds * 1000.0) {
    const bool traced_round = traced != nullptr && round_index % 2 == 1;
    Tracer& tracer = traced_round ? *traced : off;
    std::vector<std::size_t> order = wl.round;
    if (wl.shuffle) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
      }
    }
    const auto base = static_cast<std::int64_t>(loop.ops.size());
    std::vector<OpSample> samples(order.size());
    const auto round_start = Clock::now();
    const ScopedSpan round(tracer, "bench.round", -1, round_index++);
    pool.for_each(static_cast<std::int64_t>(order.size()), [&](std::int64_t i) {
      const auto k = static_cast<std::size_t>(i);
      OpSample& s = samples[k];
      s.point = order[k];
      s.traced = traced_round;
      const Point& p = wl.points[s.point];
      const ScopedSpan span(tracer, "run.point", round.id(), base + i);
      const auto t0 = Clock::now();
      try {
        hmm::run::PointOutcome out = hmm::run::run_point(p, fx.cache);
        s.ms = ms_between(t0, Clock::now());
        if (base + i == corrupt_op) out.summary += " (corrupted)";
        const hmm::RunReport& want = fx.timed[s.point].report;
        s.ok = out.summary == fx.refs[s.point].summary &&
               out.time == want.makespan &&
               out.global_stages == want.global_pipeline.stages;
      } catch (const std::exception& e) {
        s.ms = ms_between(t0, Clock::now());
        std::fprintf(stderr, "op %lld failed: %s\n",
                     static_cast<long long>(base + i), e.what());
      }
    });
    loop.ops.insert(loop.ops.end(), samples.begin(), samples.end());
    loop.round_s.push_back(ms_between(round_start, Clock::now()) / 1000.0);
  }
  return loop;
}

void add_service_absent(Result& result) {
  // The service layer is not on this workload's path.
  for (const char* name : {"service.accept_ms_p50", "service.run_ms_p50",
                           "service.stream_ms_p50"}) {
    result.add(name, 0.0, "ms");
  }
  result.add("service.frames_per_req", 0.0, "count");
  result.add("service.bytes_per_req", 0.0, "B");
  result.add("service.drop_frames", 0.0, "count/req");
}

/// Mean op latency of the traced (or the untraced) ops of a loop.
double mean_ms(const Loop& loop, bool traced) {
  double total = 0.0;
  std::int64_t n = 0;
  for (const OpSample& s : loop.ops) {
    if (s.traced != traced) continue;
    total += s.ms;
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

bool is_engine_workload(const std::string& name) {
  return name == "sum-global" || name == "conv-shared" || name == "sort-sweep";
}

Result run_engine_workload(const Options& opt) {
  const EngineWorkload wl = engine_workload(opt.workload, opt.seed);
  Result result;
  Tracer on(opt.trace);
  hmm::Rng rng(opt.seed);

  // Set up kSetups times (fresh cache, references, warm-up) and keep the
  // last fixture.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = make_fixture(wl, on);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  for (const char ok : fx->timed_ok) result.tally(ok != 0);

  if (!opt.trace) {
    const Loop loop =
        run_rounds(wl, *fx, opt.seconds, rng, nullptr, opt.corrupt_op);
    std::vector<double> ms;
    for (const OpSample& s : loop.ops) {
      result.tally(s.ok);
      if (!wl.sweep_op) ms.push_back(s.ms);
    }
    if (wl.sweep_op) {
      for (const double r : loop.round_s) ms.push_back(r * 1000.0);
    }
    // Every round does the same ops, so a round's rate is the throughput;
    // the median round keeps a burst of host noise out of it.
    std::int64_t round_issue = 0;
    for (const std::size_t k : wl.round) {
      round_issue += issue_slots(fx->timed[k].report);
    }
    const double round_s = median(loop.round_s);
    const auto rounds = static_cast<std::int64_t>(loop.round_s.size());
    const double ops_per_round =
        wl.sweep_op ? 1.0 : static_cast<double>(wl.round.size());
    const LatencySummary lat = summarize(ms);
    result.add("setup_s", median(setup_s), "s",
               static_cast<std::int64_t>(setup_s.size()));
    result.add("ops_per_s", ops_per_round / round_s, "1/s", rounds);
    result.add("op_ms_p50", lat.p50, "ms", lat.samples);
    result.add("op_ms_p90", lat.p90, "ms", lat.samples);
    result.add("sim_issue_per_s", static_cast<double>(round_issue) / round_s,
               "1/s", rounds);
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.notes.push_back(tail_note(lat));
    return result;
  }

  // Traced run: rounds alternate untraced and traced; the difference in
  // mean op latency is the tracing overhead.
  const Loop loop = run_rounds(wl, *fx, opt.seconds, rng, &on, -1);
  std::map<std::size_t, std::vector<double>> per_point;
  for (const OpSample& s : loop.ops) {
    result.tally(s.ok);
    per_point[s.point].push_back(s.ms);
  }
  result.add("alg.input_ms", on.total_ms("alg.input"), "ms");
  const std::vector<double> point_ms = on.self_ms("run.point");
  result.add("run.point_ms_p50", median(point_ms), "ms",
             static_cast<std::int64_t>(point_ms.size()));
  result.add("run.pool_busy_share",
             on.total_ms("run.point") /
                 (static_cast<double>(wl.jobs) * on.total_ms("bench.round")),
             "ratio");
  result.add("trace.overhead_ms_per_op",
             mean_ms(loop, true) - mean_ms(loop, false), "ms",
             static_cast<std::int64_t>(point_ms.size()));

  std::vector<LayerPoint> layer_points;
  for (std::size_t k = 0; k < wl.points.size(); ++k) {
    LayerPoint lp;
    lp.point = wl.points[k];
    lp.inputs = &fx->inputs[k];
    lp.reference = &fx->refs[k];
    lp.timed = &fx->timed[k];
    lp.op_ms = median(per_point[k]);
    lp.ops = std::count(wl.round.begin(), wl.round.end(), k);
    layer_points.push_back(lp);
  }
  add_layer_metrics(layer_points, on, result);
  add_service_absent(result);
  on.write_json(opt.run_dir + "/" + opt.workload + "-seed" +
                std::to_string(opt.seed) + "-spans.json");
  return result;
}

}  // namespace perfbench
