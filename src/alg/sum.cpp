#include "alg/sum.hpp"

#include <algorithm>

#include "alg/device.hpp"
#include "alg/plans.hpp"
#include "core/error.hpp"
#include "core/mathutil.hpp"

namespace hmm::alg {

// ---- baselines --------------------------------------------------------------

BaselineSum sum_sequential(SequentialRam& ram, Address base, std::int64_t n) {
  HMM_REQUIRE(n >= 1, "sum: n must be >= 1");
  Word total = 0;
  for (Address i = 0; i < n; ++i) {
    total += ram.read(base + i);  // one read + one add
    ram.tick();
  }
  return {total, ram.time()};
}

BaselineSum sum_sequential(std::span<const Word> input) {
  SequentialRam ram(static_cast<std::int64_t>(input.size()));
  ram.load(0, input);
  return sum_sequential(ram, 0, static_cast<std::int64_t>(input.size()));
}

BaselineSum sum_pram(Pram& pram, Address base, std::int64_t n) {
  HMM_REQUIRE(n >= 1, "sum: n must be >= 1");
  // Lemma 3 shape: one pass of per-processor partial sums is subsumed by
  // Brent charging inside parallel_step, then pairwise folding.
  std::int64_t s = n;
  while (s > 1) {
    const std::int64_t half = ceil_div(s, 2);
    const std::int64_t folds = s - half;
    pram.parallel_step(folds, [&](std::int64_t i, PramAccess& a) {
      a.write(base + i, a.read(base + i) + a.read(base + half + i));
    });
    s = half;
  }
  return {pram.peek(base), pram.time()};
}

BaselineSum sum_pram(std::span<const Word> input, std::int64_t processors) {
  Pram pram(processors, static_cast<std::int64_t>(input.size()));
  pram.load(0, input);
  return sum_pram(pram, 0, static_cast<std::int64_t>(input.size()));
}

// ---- Lemma 5 ---------------------------------------------------------------

MachineSum sum_mm(Machine& machine, MemorySpace space, Address base,
                  std::int64_t n) {
  HMM_REQUIRE(n >= 1, "sum: n must be >= 1");
  const std::int64_t p = machine.num_threads();
  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    co_await device_tree_sum(t, space, base, n, t.thread_id(), p,
                             BarrierScope::kMachine);
  });
  BankMemory& mem = space == MemorySpace::kShared ? machine.shared_memory(0)
                                                  : machine.global_memory();
  return {mem.peek(base), std::move(report)};
}

MachineSum sum_dmm(std::span<const Word> input, std::int64_t threads,
                   std::int64_t width, Cycle latency) {
  const auto n = static_cast<std::int64_t>(input.size());
  Machine m = Machine::dmm(width, latency, threads, n);
  m.shared_memory(0).load(0, input);
  return sum_mm(m, MemorySpace::kShared, 0, n);
}

MachineSum sum_umm(std::span<const Word> input, std::int64_t threads,
                   std::int64_t width, Cycle latency,
                   EngineObserver* observer, bool fast_forward) {
  const auto n = static_cast<std::int64_t>(input.size());
  Machine m = Machine::umm(width, latency, threads, n);
  m.set_observer(observer);
  m.set_fast_forward(fast_forward);
  m.global_memory().load(0, input);
  return sum_mm(m, MemorySpace::kGlobal, 0, n);
}

// ---- Lemma 6 ---------------------------------------------------------------

MachineSum sum_hmm_straightforward(Machine& machine, std::int64_t n) {
  HMM_REQUIRE(n >= 1, "sum: n must be >= 1");
  HMM_REQUIRE(machine.has_global(), "Lemma 6 needs a global memory");
  const std::int64_t p0 = machine.topology().threads_on(0);
  HMM_REQUIRE(machine.global_memory().size() >= n + p0,
              "global memory too small: need n + p0 cells");

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.dmm_id() != 0) co_return;  // only DMM(0) participates
    const std::int64_t self = t.local_thread_id();
    // Column sums over the p0-column layout: round j reads
    // A[j*p0 + self] — contiguous (Theorem 2).
    Word acc = 0;
    for (Address i = self; i < n; i += p0) {
      acc += co_await t.read(MemorySpace::kGlobal, i);
      co_await t.compute();
    }
    co_await t.write(MemorySpace::kGlobal, n + self, acc);
    // Lemma-5 tree ON THE GLOBAL MEMORY: every level pays latency l.
    co_await device_tree_sum(t, MemorySpace::kGlobal, n, p0, self, p0,
                             BarrierScope::kDmm);
  });
  return {machine.global_memory().peek(n), std::move(report)};
}

MachineSum sum_hmm_straightforward(std::span<const Word> input,
                                   std::int64_t p0, std::int64_t width,
                                   Cycle latency) {
  const auto n = static_cast<std::int64_t>(input.size());
  // A single DMM with a global memory is exactly "DMM(0) of an HMM".
  Machine m = Machine::hmm(width, latency, /*num_dmms=*/1,
                           /*threads_per_dmm=*/p0, /*shared_size=*/1,
                           /*global_size=*/n + p0);
  m.global_memory().load(0, input);
  return sum_hmm_straightforward(m, n);
}

// ---- Theorem 7 --------------------------------------------------------------

MachineSum sum_hmm(Machine& machine, std::int64_t n) {
  HMM_REQUIRE(n >= 1, "sum: n must be >= 1");
  HMM_REQUIRE(machine.has_global() && machine.has_shared(),
              "Theorem 7 needs both memories (an HMM)");
  const std::int64_t p = machine.num_threads();
  const std::int64_t d = machine.num_dmms();
  HMM_REQUIRE(machine.global_memory().size() >= n + d,
              "global memory too small: need n + d cells");

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t pd = t.dmm_thread_count();
    const std::int64_t self = t.local_thread_id();
    const Address shared_base = 0;

    // Phase 1: column sums over the p-column layout into registers.
    // Thread (dmm, self) owns global column dmm*pd + self... no: columns
    // are by GLOBAL thread id so that round j reads A[j*p + tid] — one
    // contiguous run across the whole machine (Theorem 2).
    const ThreadId tid = t.thread_id();
    Word acc = 0;
    for (Address i = tid; i < n; i += p) {
      acc += co_await t.read(MemorySpace::kGlobal, i);
      co_await t.compute();
    }

    // Phase 2: per-DMM tree in latency-1 shared memory.
    co_await t.write(MemorySpace::kShared, shared_base + self, acc);
    co_await device_tree_sum(t, MemorySpace::kShared, shared_base, pd, self,
                             pd, BarrierScope::kDmm);

    // Phase 3: one partial per DMM to global scratch A[n..n+d).
    if (self == 0) {
      const Word dmm_sum = co_await t.read(MemorySpace::kShared, shared_base);
      co_await t.write(MemorySpace::kGlobal, n + t.dmm_id(), dmm_sum);
    }
    co_await t.barrier(BarrierScope::kMachine);
    if (t.dmm_id() != 0) co_return;

    // Phase 4 (DMM(0) only): stage the d partials into shared memory with
    // coalesced reads, tree-sum them at latency 1, write the total back.
    const std::int64_t stagers = std::min(pd, d);
    const std::int64_t stage_self = self < stagers ? self : kNoWorker;
    co_await device_copy(t, MemorySpace::kShared, shared_base,
                         MemorySpace::kGlobal, n, d, stage_self, stagers);
    co_await t.barrier(BarrierScope::kDmm);
    co_await device_tree_sum(t, MemorySpace::kShared, shared_base, d, self,
                             pd, BarrierScope::kDmm);
    if (self == 0) {
      const Word total = co_await t.read(MemorySpace::kShared, shared_base);
      co_await t.write(MemorySpace::kGlobal, n, total);
    }
  });
  return {machine.global_memory().peek(n), std::move(report)};
}

MachineSum sum_hmm(std::span<const Word> input, std::int64_t num_dmms,
                   std::int64_t threads_per_dmm, std::int64_t width,
                   Cycle latency, EngineObserver* observer, bool fast_forward,
                   const RunContext& run) {
  const auto n = static_cast<std::int64_t>(input.size());
  const std::int64_t shared_size = std::max(threads_per_dmm, num_dmms);
  Machine m = Machine::hmm(width, latency, num_dmms, threads_per_dmm,
                           shared_size, n + num_dmms, run);
  m.set_observer(observer);
  m.set_fast_forward(fast_forward);
  m.global_memory().load(0, input);
  return sum_hmm(m, n);
}

// ---- plan twins (plans.hpp) -------------------------------------------------

std::optional<analysis::AccessPlan> build_sum_plan(const PlanPoint& point) {
  const std::int64_t n = point.n;
  HMM_REQUIRE(n >= 1, "sum plan: n must be >= 1");
  if (point.model == "umm") {
    // sum_umm == sum_mm on the global memory: one Lemma-5 tree.
    auto plan = analysis::build_access_plan(
        "sum/umm", {point.w, 1, point.p}, [&](analysis::PlanCtx& c) {
          c.set_label("tree-fold");
          plan_device_tree_sum(c, MemorySpace::kGlobal, 0, n, c.thread_id(),
                               point.p, BarrierScope::kMachine);
        });
    plan.claimed_groups = 1;
    return plan;
  }
  if (point.model != "hmm") return std::nullopt;

  // Theorem-7 sum_hmm, phase by phase.
  HMM_REQUIRE(point.d >= 1 && point.p % point.d == 0,
              "sum plan: d must divide p");
  const std::int64_t d = point.d;
  const std::int64_t pd = point.p / d;
  const std::int64_t p = point.p;
  auto plan = analysis::build_access_plan(
      "sum/hmm", {point.w, d, pd}, [&](analysis::PlanCtx& c) {
        const std::int64_t self = c.local_thread_id();
        c.set_label("column-sums");
        for (Address i = c.thread_id(); i < n; i += p) {
          c.read(MemorySpace::kGlobal, i);
          c.compute();
        }
        c.set_label("dmm-tree");
        c.write(MemorySpace::kShared, self);
        plan_device_tree_sum(c, MemorySpace::kShared, 0, pd, self, pd,
                             BarrierScope::kDmm);
        c.set_label("publish-partials");
        if (self == 0) {
          c.read(MemorySpace::kShared, 0);
          c.write(MemorySpace::kGlobal, n + c.dmm_id());
        }
        c.barrier(BarrierScope::kMachine);
        if (c.dmm_id() != 0) return;
        c.set_label("final-tree");
        const std::int64_t stagers = std::min(pd, d);
        plan_device_copy(c, MemorySpace::kShared, 0, MemorySpace::kGlobal, n,
                         d, self < stagers ? self : kNoWorker, stagers);
        c.barrier(BarrierScope::kDmm);
        plan_device_tree_sum(c, MemorySpace::kShared, 0, d, self, pd,
                             BarrierScope::kDmm);
        if (self == 0) {
          c.read(MemorySpace::kShared, 0);
          c.write(MemorySpace::kGlobal, n);
        }
      });
  plan.claimed_degree = 1;
  plan.claimed_groups = 1;
  return plan;
}

}  // namespace hmm::alg
