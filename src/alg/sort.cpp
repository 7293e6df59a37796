#include "alg/sort.hpp"

#include <algorithm>

#include "alg/device.hpp"
#include "alg/plans.hpp"
#include "core/error.hpp"
#include "core/mathutil.hpp"

namespace hmm::alg {

namespace {

/// One bitonic compare-exchange stage (k, j) over the elements
/// [base, base + count) of `space`, where the element at local offset q
/// has GLOBAL index global0 + q (the direction bit (global & k) must use
/// global indices so that staged HMM blocks run the very same network).
/// Pairs are strip-mined over workers; pair q maps to the lower index
/// (q / j) * 2j + (q % j), so consecutive q give contiguous runs of
/// length j on both sides of the exchange.  Barrier-free.
SubTask device_bitonic_stage(ThreadCtx& t, MemorySpace space, Address base,
                             std::int64_t count, std::int64_t global0,
                             std::int64_t k, std::int64_t j,
                             std::int64_t self, std::int64_t workers) {
  if (self == kNoWorker) co_return;
  const std::int64_t pairs = count / 2;
  for (std::int64_t q = self; q < pairs; q += workers) {
    const std::int64_t lo = (q / j) * (2 * j) + (q % j);
    const std::int64_t hi = lo + j;
    const Word a = co_await t.read(space, base + lo);
    const Word b = co_await t.read(space, base + hi);
    co_await t.compute();  // the compare
    const bool ascending = ((global0 + lo) & k) == 0;
    const Word small = std::min(a, b), big = std::max(a, b);
    co_await t.write(space, base + lo, ascending ? small : big);
    co_await t.write(space, base + hi, ascending ? big : small);
  }
}

MachineSort sort_standalone(std::span<const Word> input, std::int64_t threads,
                            std::int64_t width, Cycle latency,
                            MemorySpace space, EngineObserver* observer,
                            bool fast_forward) {
  const auto n = static_cast<std::int64_t>(input.size());
  Machine machine = space == MemorySpace::kShared
                        ? Machine::dmm(width, latency, threads, n)
                        : Machine::umm(width, latency, threads, n);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  BankMemory& mem = space == MemorySpace::kShared
                        ? machine.shared_memory(0)
                        : machine.global_memory();
  mem.load(0, input);
  return sort_mm(machine, space, n);
}

}  // namespace

MachineSort sort_mm(Machine& machine, MemorySpace space, std::int64_t n) {
  HMM_REQUIRE(n >= 1 && is_pow2(n), "bitonic sort: n must be a power of two");
  BankMemory& mem = space == MemorySpace::kShared
                        ? machine.shared_memory(0)
                        : machine.global_memory();
  HMM_REQUIRE(n <= mem.size(), "bitonic sort: n exceeds memory size");

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t p = t.num_threads();
    for (std::int64_t k = 2; k <= n; k <<= 1) {
      for (std::int64_t j = k >> 1; j >= 1; j >>= 1) {
        co_await device_bitonic_stage(t, space, 0, n, 0, k, j, t.thread_id(),
                                      p);
        co_await t.barrier(BarrierScope::kMachine);
      }
    }
  });
  return {mem.dump(0, n), std::move(report)};
}

MachineSort sort_dmm(std::span<const Word> input, std::int64_t threads,
                     std::int64_t width, Cycle latency) {
  return sort_standalone(input, threads, width, latency,
                         MemorySpace::kShared, nullptr,
                         /*fast_forward=*/true);
}

MachineSort sort_umm(std::span<const Word> input, std::int64_t threads,
                     std::int64_t width, Cycle latency,
                     EngineObserver* observer, bool fast_forward) {
  return sort_standalone(input, threads, width, latency,
                         MemorySpace::kGlobal, observer, fast_forward);
}

MachineSort sort_hmm(std::span<const Word> input, std::int64_t num_dmms,
                     std::int64_t threads_per_dmm, std::int64_t width,
                     Cycle latency, EngineObserver* observer,
                     bool fast_forward, const RunContext& run) {
  const auto n = static_cast<std::int64_t>(input.size());
  const std::int64_t d = num_dmms;
  HMM_REQUIRE(d >= 1 && is_pow2(d) && n >= d && n % d == 0,
              "bitonic sort: d must be a power of two dividing n");
  Machine machine =
      Machine::hmm(width, latency, d, threads_per_dmm, n / d, n, run);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  machine.global_memory().load(0, input);
  return sort_hmm(machine, n);
}

MachineSort sort_hmm(Machine& machine, std::int64_t n) {
  const std::int64_t d = machine.num_dmms();
  HMM_REQUIRE(n >= 1 && is_pow2(n), "bitonic sort: n must be a power of two");
  HMM_REQUIRE(d >= 1 && is_pow2(d) && n % d == 0,
              "bitonic sort: d must be a power of two dividing n");
  const std::int64_t c = n / d;  // aligned block per DMM
  HMM_REQUIRE(is_pow2(c), "bitonic sort: n/d must be a power of two");
  HMM_REQUIRE(c <= machine.shared_memory(0).size(),
              "bitonic sort: n/d exceeds shared memory size");
  HMM_REQUIRE(n <= machine.global_memory().size(),
              "bitonic sort: n exceeds global memory size");

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t self = t.local_thread_id();
    const std::int64_t workers = t.dmm_thread_count();
    const Address block = t.dmm_id() * c;  // this DMM's aligned block

    // A staged local pass: pull the block into shared memory, run the
    // given (k, j<=j_hi) tail of the network there (strides < c stay
    // inside aligned blocks), push it back, and meet everyone at the
    // machine barrier so the next cross-block stage sees it.
    auto local_pass = [&](std::int64_t k, std::int64_t j_hi) -> SubTask {
      co_await device_copy(t, MemorySpace::kShared, 0, MemorySpace::kGlobal,
                           block, c, self, workers);
      co_await t.barrier(BarrierScope::kDmm);
      for (std::int64_t j = j_hi; j >= 1; j >>= 1) {
        co_await device_bitonic_stage(t, MemorySpace::kShared, 0, c, block,
                                      k, j, self, workers);
        co_await t.barrier(BarrierScope::kDmm);
      }
      co_await device_copy(t, MemorySpace::kGlobal, block,
                           MemorySpace::kShared, 0, c, self, workers);
      co_await t.barrier(BarrierScope::kMachine);
    };

    // Phase A: every k <= c is entirely within blocks — one staging
    // covers the full local bitonic sort.  (Run the k-loop inside the
    // staged pass.)
    co_await device_copy(t, MemorySpace::kShared, 0, MemorySpace::kGlobal,
                         block, c, self, workers);
    co_await t.barrier(BarrierScope::kDmm);
    for (std::int64_t k = 2; k <= c; k <<= 1) {
      for (std::int64_t j = k >> 1; j >= 1; j >>= 1) {
        co_await device_bitonic_stage(t, MemorySpace::kShared, 0, c, block,
                                      k, j, self, workers);
        co_await t.barrier(BarrierScope::kDmm);
      }
    }
    co_await device_copy(t, MemorySpace::kGlobal, block, MemorySpace::kShared,
                         0, c, self, workers);
    co_await t.barrier(BarrierScope::kMachine);

    // Phase B: for k > c, strides >= c cross blocks and run on global
    // memory (all p threads share the work); the j < c tail of each k
    // goes back into shared.
    const ThreadId tid = t.thread_id();
    const std::int64_t p = t.num_threads();
    for (std::int64_t k = 2 * c; k <= n; k <<= 1) {
      for (std::int64_t j = k >> 1; j >= c; j >>= 1) {
        co_await device_bitonic_stage(t, MemorySpace::kGlobal, 0, n, 0, k, j,
                                      tid, p);
        co_await t.barrier(BarrierScope::kMachine);
      }
      co_await local_pass(k, c >> 1);
    }
  });
  return {machine.global_memory().dump(0, n), std::move(report)};
}

// ---- plan twins (plans.hpp) -------------------------------------------------

namespace {

/// Symbolic device_bitonic_stage: same pair mapping and operation order;
/// the direction bit only affects values, never addresses, so global0
/// and the comparison drop out.
void plan_bitonic_stage(analysis::PlanCtx& c, MemorySpace space, Address base,
                        std::int64_t count, std::int64_t k, std::int64_t j,
                        std::int64_t self, std::int64_t workers) {
  (void)k;
  if (self == kNoWorker) return;
  const std::int64_t pairs = count / 2;
  for (std::int64_t q = self; q < pairs; q += workers) {
    const std::int64_t lo = (q / j) * (2 * j) + (q % j);
    const std::int64_t hi = lo + j;
    c.read(space, base + lo);
    c.read(space, base + hi);
    c.compute();
    c.write(space, base + lo);
    c.write(space, base + hi);
  }
}

}  // namespace

std::optional<analysis::AccessPlan> build_sort_plan(const PlanPoint& point) {
  const std::int64_t n = point.n;
  HMM_REQUIRE(n >= 1 && is_pow2(n),
              "sort plan: n must be a power of two");
  if (point.model == "umm") {
    auto plan = analysis::build_access_plan(
        "sort/umm", {point.w, 1, point.p}, [&](analysis::PlanCtx& c) {
          c.set_label("bitonic-stage");
          for (std::int64_t k = 2; k <= n; k <<= 1) {
            for (std::int64_t j = k >> 1; j >= 1; j >>= 1) {
              plan_bitonic_stage(c, MemorySpace::kGlobal, 0, n, k, j,
                                 c.thread_id(), point.p);
              c.barrier(BarrierScope::kMachine);
            }
          }
        });
    plan.claimed_groups = 2;
    return plan;
  }
  if (point.model != "hmm") return std::nullopt;

  const std::int64_t d = point.d;
  HMM_REQUIRE(d >= 1 && is_pow2(d) && n % d == 0 && is_pow2(n / d),
              "sort plan: d and n/d must be powers of two");
  HMM_REQUIRE(point.p % d == 0, "sort plan: d must divide p");
  const std::int64_t c_blk = n / d;
  const std::int64_t pd = point.p / d;
  const std::int64_t p = point.p;
  auto plan = analysis::build_access_plan(
      "sort/hmm", {point.w, d, pd}, [&](analysis::PlanCtx& c) {
        const std::int64_t self = c.local_thread_id();
        const Address block = c.dmm_id() * c_blk;

        auto local_pass = [&](std::int64_t k, std::int64_t j_hi) {
          c.set_label("stage-in");
          plan_device_copy(c, MemorySpace::kShared, 0, MemorySpace::kGlobal,
                           block, c_blk, self, pd);
          c.barrier(BarrierScope::kDmm);
          c.set_label("local-stages");
          for (std::int64_t j = j_hi; j >= 1; j >>= 1) {
            plan_bitonic_stage(c, MemorySpace::kShared, 0, c_blk, k, j, self,
                               pd);
            c.barrier(BarrierScope::kDmm);
          }
          c.set_label("stage-out");
          plan_device_copy(c, MemorySpace::kGlobal, block,
                           MemorySpace::kShared, 0, c_blk, self, pd);
          c.barrier(BarrierScope::kMachine);
        };

        // Phase A: the full local bitonic sort under one staging.
        c.set_label("stage-in");
        plan_device_copy(c, MemorySpace::kShared, 0, MemorySpace::kGlobal,
                         block, c_blk, self, pd);
        c.barrier(BarrierScope::kDmm);
        c.set_label("local-stages");
        for (std::int64_t k = 2; k <= c_blk; k <<= 1) {
          for (std::int64_t j = k >> 1; j >= 1; j >>= 1) {
            plan_bitonic_stage(c, MemorySpace::kShared, 0, c_blk, k, j, self,
                               pd);
            c.barrier(BarrierScope::kDmm);
          }
        }
        c.set_label("stage-out");
        plan_device_copy(c, MemorySpace::kGlobal, block, MemorySpace::kShared,
                         0, c_blk, self, pd);
        c.barrier(BarrierScope::kMachine);

        // Phase B: cross-block stages on global, local tails staged.
        for (std::int64_t k = 2 * c_blk; k <= n; k <<= 1) {
          c.set_label("cross-stages");
          for (std::int64_t j = k >> 1; j >= c_blk; j >>= 1) {
            plan_bitonic_stage(c, MemorySpace::kGlobal, 0, n, k, j,
                               c.thread_id(), p);
            c.barrier(BarrierScope::kMachine);
          }
          local_pass(k, c_blk >> 1);
        }
      });
  plan.claimed_degree = 2;
  plan.claimed_groups = 1;
  return plan;
}

}  // namespace hmm::alg
