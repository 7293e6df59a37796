#include "run/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/error.hpp"

namespace hmm::run {

using IndexFn = std::function<void(std::int64_t)>;

// The dispatcher publishes a batch (fn, count) under mu_ and bumps
// generation_; every worker claims indices through next_ until none are
// left, then reports in.  The dispatcher returns once all have.
class SweepRunner::Pool {
 public:
  explicit Pool(std::int64_t jobs) {
    if (jobs == 1) return;  // the caller runs every index itself
    try {
      for (std::int64_t t = 0; t < jobs; ++t) {
        threads_.emplace_back([this] { worker(); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Pool() { stop(); }

  void for_each(std::int64_t count, const IndexFn& fn) {
    if (busy_.exchange(true, std::memory_order_acquire)) {
      throw PreconditionError(
          "SweepRunner: for_each is already running on this runner "
          "(nested or concurrent calls are not supported)");
    }
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    if (threads_.empty()) {
      // Lend the runner's resources to the caller for this call only.
      Machine::WorkerResources* const saved = Machine::thread_resources();
      Machine::set_thread_resources(&caller_);
      drain(fn, count);
      Machine::set_thread_resources(saved);
    } else {
      std::unique_lock<std::mutex> lk(mu_);
      fn_ = &fn;
      count_ = count;
      finished_ = 0;
      ++generation_;
      work_cv_.notify_all();
      done_cv_.wait(lk, [this] { return finished_ == threads_.size(); });
    }
    std::exception_ptr error;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      error = std::exchange(error_, nullptr);
    }
    busy_.store(false, std::memory_order_release);
    if (error) std::rethrow_exception(error);
  }

 private:
  // Claim indices until none are left or one failed; never throws.
  void drain(const IndexFn& fn, std::int64_t count) {
    while (!failed_.load(std::memory_order_relaxed)) {
      const std::int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lk(mu_);
        if (!error_) error_ = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
    }
  }

  void worker() {
    // Registered for the thread's lifetime: every Machine this worker
    // ever runs draws from this arena and cache, so they stay warm
    // across grid points and across batches.
    Machine::WorkerResources resources;
    Machine::set_thread_resources(&resources);
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) break;
      seen = generation_;
      const IndexFn& fn = *fn_;
      const std::int64_t count = count_;
      lk.unlock();
      drain(fn, count);
      lk.lock();
      if (++finished_ == threads_.size()) done_cv_.notify_one();
    }
    Machine::set_thread_resources(nullptr);
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const IndexFn* fn_ = nullptr;    // guarded by mu_
  std::int64_t count_ = 0;         // guarded by mu_
  std::uint64_t generation_ = 0;   // guarded by mu_
  std::size_t finished_ = 0;       // guarded by mu_
  bool stop_ = false;              // guarded by mu_
  std::exception_ptr error_;       // guarded by mu_; first failure
  std::atomic<std::int64_t> next_{0};
  std::atomic<bool> failed_{false};
  std::atomic<bool> busy_{false};  // a for_each is in progress
  Machine::WorkerResources caller_;  // jobs == 1: lent to the caller
  std::vector<std::thread> threads_;
};

SweepRunner::SweepRunner(std::int64_t jobs) : jobs_(jobs) {
  HMM_REQUIRE(jobs >= 0, "SweepRunner: jobs must be >= 0");
  if (jobs_ == 0) {
    jobs_ = std::max(1u, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<Pool>(jobs_);
}

SweepRunner::~SweepRunner() = default;

void SweepRunner::for_each(std::int64_t count, const IndexFn& fn) const {
  HMM_REQUIRE(count >= 0, "SweepRunner: count must be >= 0");
  if (count == 0) return;
  pool_->for_each(count, fn);
}

std::int64_t resolve_engine_threads(std::int64_t threads, std::int64_t jobs) {
  HMM_REQUIRE(threads >= 0, "resolve_engine_threads: threads must be >= 0");
  HMM_REQUIRE(jobs >= 0, "resolve_engine_threads: jobs must be >= 0");
  const auto cores = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  const std::int64_t t = threads == 0 ? cores : threads;
  const std::int64_t j = jobs == 0 ? cores : jobs;
  if (j <= 1 || j * t <= cores) return t;
  return std::max<std::int64_t>(1, cores / j);
}

std::vector<RunReport> SweepRunner::run(std::span<const SweepJob> sweep) const {
  std::vector<RunReport> reports(sweep.size());
  for_each(static_cast<std::int64_t>(sweep.size()), [&](std::int64_t i) {
    const SweepJob& job = sweep[static_cast<std::size_t>(i)];
    HMM_REQUIRE(static_cast<bool>(job.kernel),
                "SweepRunner: every job needs a kernel");
    // The machine draws on the worker's registered resources.  (Cache
    // WARMTH varies with worker scheduling; results never do, and the
    // CSV/report fields compared by determinism tests exclude hit
    // counters.)
    Machine machine(job.config);
    machine.set_observer(job.observer);
    if (job.setup) job.setup(machine);
    RunReport report = machine.run(job.kernel);
    if (job.collect) job.collect(machine, report);
    machine.set_observer(nullptr);
    reports[static_cast<std::size_t>(i)] = std::move(report);
  });
  return reports;
}

}  // namespace hmm::run
