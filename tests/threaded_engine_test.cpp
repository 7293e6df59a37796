// Intra-run engine parallelism (MachineConfig::threads): the d DMMs are
// sharded across N workers and the globally-coupled rounds (global
// memory, machine-scope barriers, warp finishes) are merged in serial
// pop order, so a threaded run must be BIT-IDENTICAL to the serial
// engine — RunReport::operator== compares every counter and pipeline
// stat, and traced runs compare their collected event streams too.
// These tests lock that contract across every span driver, the
// fast-forward replay path, the per-worker resource registry, and the
// watchdog's cross-worker aggregation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alg/prefix_sums.hpp"
#include "alg/sum.hpp"
#include "alg/workload.hpp"
#include "core/error.hpp"
#include "machine/machine.hpp"
#include "run/point.hpp"
#include "run/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

// ---- full-report identity on the Machine API ----------------------------

RunReport sum_report(std::int64_t threads, std::int64_t n, bool fast_forward,
                     telemetry::CollectingSink* trace = nullptr) {
  const auto xs = alg::random_words(n, 11);
  Machine m = Machine::hmm(32, 200, 8, 64, 64, n + 8);
  m.set_observer(trace);
  m.set_engine_threads(threads);
  m.set_fast_forward(fast_forward);
  m.global_memory().load(0, xs);
  return alg::sum_hmm(m, n).report;
}

TEST(ThreadedEngine, ReportsIdenticalAcrossThreadCounts) {
  const std::int64_t n = 1 << 12;
  for (const bool ff : {true, false}) {
    const RunReport serial = sum_report(1, n, ff);
    EXPECT_GT(serial.makespan, 0);
    for (const std::int64_t threads : {2, 3, 4, 8}) {
      EXPECT_EQ(serial, sum_report(threads, n, ff))
          << "threads=" << threads << " ff=" << ff;
    }
  }
}

TEST(ThreadedEngine, ThreadCountAboveDmmCountIsClamped) {
  // 64 workers on an 8-DMM machine: the engine clamps to d and must not
  // spawn idle shards that perturb the merge order.
  const std::int64_t n = 1 << 11;
  EXPECT_EQ(sum_report(1, n, true), sum_report(64, n, true));
}

TEST(ThreadedEngine, TracedRunFallsBackToSerialOrder) {
  // A trace sink forces the serial loop (the event stream contract);
  // the report and the trace must match threads=1 exactly.
  const std::int64_t n = 1 << 10;
  telemetry::CollectingSink serial_trace;
  telemetry::CollectingSink threaded_trace;
  const RunReport serial = sum_report(1, n, true, &serial_trace);
  const RunReport threaded = sum_report(4, n, true, &threaded_trace);
  ASSERT_FALSE(serial_trace.events().empty());
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(serial_trace.events(), threaded_trace.events());
}

TEST(ThreadedEngine, ObservedRunFallsBackToSerialOrder) {
  // Same contract for observers: metrics collected under --threads must
  // equal the serial snapshot (the fanout sees serial-order events).
  const std::int64_t n = 1 << 10;
  const auto xs = alg::random_words(n, 7);
  auto snapshot = [&](std::int64_t threads) {
    Machine m = Machine::hmm(32, 100, 4, 64, 64, n + 4);
    m.set_engine_threads(threads);
    m.global_memory().load(0, xs);
    telemetry::MetricsRegistry registry;
    m.set_observer(&registry);
    alg::sum_hmm(m, n);
    m.set_observer(nullptr);
    return registry.snapshot();
  };
  EXPECT_EQ(snapshot(1), snapshot(4));
}

TEST(ThreadedEngine, FastForwardStatsInvariantAcrossThreadCounts) {
  // The replay/bailout tallies are per-warp-deterministic, so they must
  // not depend on the shard topology.  The hit/miss SPLIT is topology-
  // dependent (each worker owns a PatternCache) but every batch is
  // priced exactly once, so the total is invariant.
  const std::int64_t n = 1 << 12;
  const RunReport serial = sum_report(1, n, true);
  const RunReport threaded = sum_report(4, n, true);
  EXPECT_GT(serial.fast_forward.replayed_rounds, 0);
  EXPECT_EQ(serial.fast_forward.replayed_rounds,
            threaded.fast_forward.replayed_rounds);
  EXPECT_EQ(serial.fast_forward.patterns, threaded.fast_forward.patterns);
  EXPECT_EQ(serial.fast_forward.bailouts, threaded.fast_forward.bailouts);
  EXPECT_EQ(serial.fast_forward.cache_hits + serial.fast_forward.cache_misses,
            threaded.fast_forward.cache_hits +
                threaded.fast_forward.cache_misses);
}

// ---- same-address rounds on global memory --------------------------------

/// Result of one run of the duplicate-address kernel below.
struct DuplicateRun {
  RunReport report;
  std::vector<Word> memory;
  std::vector<std::int64_t> traffic;
};

/// Global rounds that exercise every same-address rule of
/// BankMemory::service: broadcast reads, two lanes writing one cell, and
/// a read and a write of one cell in the same round.  Warps of every DMM
/// share the hot cells, so the result also depends on the order in which
/// global rounds are serviced across DMMs.
DuplicateRun duplicate_run(std::int64_t threads, bool fast_forward,
                           telemetry::CollectingSink* trace = nullptr) {
  constexpr Address kHot = 0, kPairs = 8, kOut = 16;
  Machine m = Machine::hmm(8, 20, 4, 16, 16, kOut + 64);
  m.set_observer(trace);
  m.set_engine_threads(threads);
  m.set_fast_forward(fast_forward);
  for (Address a = 0; a < kOut; ++a) m.global_memory().poke(a, 100 + a);
  DuplicateRun run;
  run.report = m.run([](ThreadCtx& t) -> SimTask {
    const std::int64_t lane = t.lane();
    Word acc = t.thread_id();
    for (std::int64_t it = 0; it < 12; ++it) {
      acc += co_await t.read(MemorySpace::kGlobal, kHot + it % 8);
      co_await t.write(MemorySpace::kGlobal, kHot + (it + lane / 2) % 8, acc);
      co_await t.compute(1 + (t.dmm_id() + it) % 3);
      const Address cell = kPairs + (lane / 2 + it) % 8;
      if (lane % 2 == 0) {
        acc += co_await t.read(MemorySpace::kGlobal, cell);
      } else {
        co_await t.write(MemorySpace::kGlobal, cell, acc);
      }
    }
    co_await t.write(MemorySpace::kGlobal, kOut + t.thread_id(), acc);
  });
  run.memory = m.global_memory().dump(0, kOut + 64);
  run.traffic = m.global_memory().bank_traffic();
  return run;
}

TEST(ThreadedEngine, DuplicateAddressRoundsIdenticalAcrossEngineModes) {
  const DuplicateRun serial = duplicate_run(1, true);
  ASSERT_GT(serial.report.makespan, 0);
  // The kernel's results depend on the values it read.
  EXPECT_NE(serial.memory[16], serial.memory[17]);

  const auto expect_same = [&](const DuplicateRun& other, const char* mode) {
    EXPECT_EQ(serial.report, other.report) << mode;
    EXPECT_EQ(serial.memory, other.memory) << mode;
    EXPECT_EQ(serial.traffic, other.traffic) << mode;
  };
  expect_same(duplicate_run(2, true), "threads=2");
  expect_same(duplicate_run(1, false), "fast-forward off");
  telemetry::CollectingSink sink;
  expect_same(duplicate_run(1, true, &sink), "collecting sink");
  EXPECT_FALSE(sink.events().empty());
}

// ---- per-worker resource registry ---------------------------------------

TEST(ThreadedEngine, WorkerResourceRegistryGrowsAndTrims) {
  // Worker k >= 1 draws its FrameArena/PatternCache from slot k-1; the
  // registry is trimmed at run start so re-running with fewer threads
  // frees the stale workers' arenas instead of leaking them.
  const std::int64_t n = 1 << 10;
  const auto xs = alg::random_words(n, 3);
  Machine m = Machine::hmm(32, 100, 8, 64, 64, n + 8);
  m.global_memory().load(0, xs);

  m.set_engine_threads(4);
  const RunReport four = alg::sum_hmm(m, n).report;
  EXPECT_EQ(m.worker_resource_count(), 3);

  m.set_engine_threads(2);
  const RunReport two = alg::sum_hmm(m, n).report;
  EXPECT_EQ(m.worker_resource_count(), 1);

  m.set_engine_threads(1);
  const RunReport one = alg::sum_hmm(m, n).report;
  EXPECT_EQ(m.worker_resource_count(), 0);

  EXPECT_EQ(four, two);
  EXPECT_EQ(two, one);
}

TEST(ThreadedEngine, ThreadDefaultAppliesWhenConfigIsZero) {
  // MachineConfig::threads == 0 inherits the calling thread's default —
  // the hook run::run_point uses, since the span drivers build their
  // Machines internally.
  const std::int64_t n = 1 << 10;
  const RunReport serial = sum_report(1, n, true);
  Machine::set_thread_engine_threads(4);
  const RunReport inherited = sum_report(0, n, true);
  Machine::set_thread_engine_threads(1);
  EXPECT_EQ(serial, inherited);
}

// ---- watchdog aggregation across workers --------------------------------

TEST(ThreadedEngine, WatchdogNamesOwningWorker) {
  // DMM 0's two warps park at barriers of different scopes — a real
  // deadlock — while DMM 1 finishes cleanly.  The threaded watchdog
  // must aggregate parked warps ACROSS workers and name the worker that
  // owns each blocked warp.
  MachineConfig config;
  config.width = 4;
  config.threads_per_dmm = {8, 8};
  config.shared = MemorySpec{64, 1};
  config.global = MemorySpec{64, 8};
  config.threads = 2;
  Machine machine(config);
  try {
    machine.run([](ThreadCtx& t) -> SimTask {
      if (t.thread_id() >= 8) co_return;  // DMM 1: finish immediately
      if (t.thread_id() < 4) {
        co_await t.barrier(BarrierScope::kDmm);
      } else {
        co_await t.barrier(BarrierScope::kMachine);
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("blocked warps"), std::string::npos) << msg;
    EXPECT_NE(msg.find("engine worker 0"), std::string::npos) << msg;
  }
}

TEST(ThreadedEngine, IdleFinishedWorkerDoesNotTripWatchdog) {
  // The complement: DMM 1's warps finish at once and its worker idles
  // while DMM 0 keeps simulating.  An idle worker whose DMMs all
  // finished is NOT a deadlock.
  const std::int64_t n = 1 << 10;
  const auto xs = alg::random_words(n, 5);
  auto run_with = [&](std::int64_t threads) {
    Machine m = Machine::hmm(32, 100, 2, 32, 64, n + 2);
    m.set_engine_threads(threads);
    m.global_memory().load(0, xs);
    return m.run([n, &m](ThreadCtx& t) -> SimTask {
      if (t.thread_id() >= 32) co_return;  // DMM 1 idles from clock 0
      Word acc = 0;
      for (std::int64_t i = t.thread_id(); i < n; i += 32) {
        acc += co_await t.read(MemorySpace::kGlobal, i);
        co_await t.barrier(BarrierScope::kDmm);
      }
      co_await t.write(MemorySpace::kShared, t.thread_id() % m.width(), acc);
    });
  };
  const RunReport serial = run_with(1);
  EXPECT_GT(serial.makespan, 0);
  EXPECT_EQ(serial, run_with(2));
}

// ---- run_point: all 12 span drivers -------------------------------------

struct DriverCase {
  const char* algorithm;
  const char* model;
  std::int64_t n;
  std::int64_t m;
};

TEST(ThreadedEngine, PointOutcomesIdenticalAcrossAllSpanDrivers) {
  // The end-to-end contract the CLI/service ride on: every algorithm x
  // model pair, fast-forward on and off, threads 1 vs 4.
  const DriverCase cases[] = {
      {"sum", "hmm", 1 << 12, 32},    {"sum", "umm", 1 << 12, 32},
      {"scan", "hmm", 1 << 12, 32},   {"scan", "umm", 1 << 12, 32},
      {"conv", "hmm", 1 << 10, 16},   {"conv", "umm", 1 << 10, 16},
      {"sort", "hmm", 1 << 10, 32},   {"sort", "umm", 1 << 10, 32},
      {"matmul", "hmm", 64, 32},      {"matmul", "umm", 64, 32},
      {"match", "hmm", 512, 16},      {"match", "umm", 512, 16},
  };
  alg::WorkloadCache workloads;
  for (const DriverCase& c : cases) {
    for (const bool ff : {true, false}) {
      run::Point point;
      point.algorithm = c.algorithm;
      point.model = c.model;
      point.n = c.n;
      point.m = c.m;
      point.p = 256;
      point.w = 32;
      point.l = 100;
      point.d = 8;
      point.seed = 7;
      point.fast_forward = ff;
      point.threads = 1;
      const run::PointOutcome serial = run::run_point(point, workloads);
      point.threads = 4;
      const run::PointOutcome threaded = run::run_point(point, workloads);
      const std::string label = std::string(c.algorithm) + "/" + c.model +
                                (ff ? "/ff" : "/noff");
      EXPECT_EQ(serial.time, threaded.time) << label;
      EXPECT_EQ(serial.global_stages, threaded.global_stages) << label;
      EXPECT_EQ(serial.ff_rounds, threaded.ff_rounds) << label;
      EXPECT_EQ(serial.summary, threaded.summary) << label;
    }
  }
}

// ---- --jobs x --threads clamp -------------------------------------------

TEST(ThreadedEngine, ResolveEngineThreadsClampsOversubscription) {
  // jobs == 1: the request passes through untouched.
  EXPECT_EQ(run::resolve_engine_threads(3, 1), 3);
  EXPECT_EQ(run::resolve_engine_threads(1, 1), 1);
  // 0 means "all cores" on either axis — at least 1.
  EXPECT_GE(run::resolve_engine_threads(0, 0), 1);
  EXPECT_GE(run::resolve_engine_threads(0, 1), 1);
  // A sweep fanned out wider than any machine's cores leaves each run
  // exactly one engine worker.
  EXPECT_EQ(run::resolve_engine_threads(5, 1000), 1);
  // Never zero, never negative inputs.
  EXPECT_THROW(run::resolve_engine_threads(-1, 1), PreconditionError);
  EXPECT_THROW(run::resolve_engine_threads(1, -1), PreconditionError);
}

}  // namespace
}  // namespace hmm
