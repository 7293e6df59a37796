// SweepRunner — the one worker pool for independent simulation grid
// points.
//
// Nakano's model is deterministic: a (MachineConfig, kernel, inputs)
// triple fully determines the RunReport.  Parameter sweeps — hmmsim
// --jobs, the bench/ablation binaries and the hmmsimd daemon — therefore
// decompose into embarrassingly parallel grid points.  SweepRunner runs
// them on a PERSISTENT pool: its threads start in the constructor and are
// joined in the destructor, and each worker owns one
// Machine::WorkerResources (frame arena + pattern cache) registered as
// its thread's resources for as long as the thread lives.  Every Machine
// a worker runs — including those the convenience drivers build
// internally — therefore allocates frames and prices round patterns from
// a warm arena and cache.  Warmth never changes results, so reports are
// BIT-IDENTICAL regardless of the job count (locked by
// tests/determinism_test.cpp).  With jobs == 1 there are no threads: the
// caller runs every index itself with the runner's own resources
// registered for the call, and its previous registration is restored
// afterwards.
//
// Two entry points:
//
//   SweepRunner pool(jobs);            // 0 => hardware concurrency
//   pool.for_each(count, [&](std::int64_t i) { ... });   // generic
//   std::vector<RunReport> r = pool.run(jobs_span);      // config+kernel
//
// for_each hands out indices through an atomic counter (dynamic load
// balancing: grid points can differ in cost by orders of magnitude) and
// rethrows the first exception once the batch has drained; the runner
// stays usable.  One dispatcher at a time: a nested or concurrent
// for_each on the same runner throws PreconditionError.  Callers
// aggregate by index, never by completion order, to stay deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "machine/machine.hpp"

namespace hmm::run {

/// One independent grid point: a machine shape plus the kernel to run on
/// it.  `setup` (optional) loads inputs into the freshly built machine
/// before the run; `collect` (optional) reads outputs afterwards — it
/// runs on the worker thread, so it must only touch state owned by this
/// grid point (e.g. a result slot indexed by the job's position).
struct SweepJob {
  MachineConfig config;
  Machine::KernelFn kernel;
  std::function<void(Machine&)> setup;
  std::function<void(Machine&, const RunReport&)> collect;
  /// Attached for the run, detached before `collect` returns.  Because
  /// jobs run concurrently, each job needs its OWN observer instance
  /// (e.g. one MetricsRegistry per grid point); sharing one across jobs
  /// would race.  Not owned; must outlive the sweep.
  EngineObserver* observer = nullptr;
};

class SweepRunner {
 public:
  /// Start `jobs` worker threads; 0 picks
  /// std::thread::hardware_concurrency() (at least 1).  jobs == 1 never
  /// spawns a thread at all.
  explicit SweepRunner(std::int64_t jobs = 0);
  ~SweepRunner();  ///< joins the workers
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  std::int64_t jobs() const { return jobs_; }

  /// Invoke fn(i) once for every i in [0, count), distributed over the
  /// pool.  Blocks until all indices completed; rethrows the first
  /// exception once in-flight indices finished (no new index starts
  /// after a failure).  Throws PreconditionError when another for_each
  /// on this runner is in progress (nested or from another thread).
  void for_each(std::int64_t count,
                const std::function<void(std::int64_t)>& fn) const;

  /// Build, set up and run every job; reports are returned in job order.
  std::vector<RunReport> run(std::span<const SweepJob> sweep) const;

 private:
  class Pool;

  std::int64_t jobs_;
  std::unique_ptr<Pool> pool_;
};

/// Resolve a `--threads` request (engine workers INSIDE one run) against
/// a sweep's `--jobs` fan-out (grid points ACROSS runs).  0 on either
/// axis means "all cores".  The resolved count is clamped so
/// jobs x threads never oversubscribes the machine: when more than one
/// sweep worker is running, each run gets at most cores/jobs engine
/// workers (at least 1).  Reports are bit-identical at any thread count,
/// so the clamp only affects speed, never results (docs/API.md
/// "Intra-run parallelism").  Used by both hmmsim and the hmmsimd
/// service so CLI and wire requests resolve identically.
std::int64_t resolve_engine_threads(std::int64_t threads, std::int64_t jobs);

}  // namespace hmm::run
