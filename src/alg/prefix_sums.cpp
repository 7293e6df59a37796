#include "alg/prefix_sums.hpp"

#include <algorithm>

#include "alg/device.hpp"
#include "alg/plans.hpp"
#include "core/error.hpp"
#include "core/mathutil.hpp"

namespace hmm::alg {

namespace {

/// Sizes of the compacted levels 1..K (level 0 is the data itself;
/// level K has one cell).
std::vector<std::int64_t> level_sizes(std::int64_t n) {
  std::vector<std::int64_t> sizes;
  std::int64_t s = n;
  while (s > 1) {
    s = ceil_div(s, 2);
    sizes.push_back(s);
  }
  return sizes;
}

}  // namespace

std::int64_t prefix_sums_scratch_size(std::int64_t n) {
  HMM_REQUIRE(n >= 1, "prefix sums: n must be >= 1");
  std::int64_t total = 0;
  for (std::int64_t s : level_sizes(n)) total += s;
  return total;
}

SubTask device_prefix_sums(ThreadCtx& t, MemorySpace space, Address base,
                           std::int64_t n, Address scratch, std::int64_t self,
                           std::int64_t workers, BarrierScope scope) {
  HMM_REQUIRE(n >= 1 && workers >= 1, "prefix sums: n>=1, workers>=1");
  if (n == 1) co_return;  // a[0] is already its own inclusive prefix

  const std::vector<std::int64_t> sizes = level_sizes(n);
  const auto levels = static_cast<std::int64_t>(sizes.size());

  // Level bases: level 0 lives at `base`; levels 1.. in the scratch.
  std::vector<Address> level_base(static_cast<std::size_t>(levels) + 1);
  level_base[0] = base;
  Address cursor = scratch;
  for (std::int64_t k = 1; k <= levels; ++k) {
    level_base[static_cast<std::size_t>(k)] = cursor;
    cursor += sizes[static_cast<std::size_t>(k - 1)];
  }
  auto size_of = [&](std::int64_t k) {
    return k == 0 ? n : sizes[static_cast<std::size_t>(k - 1)];
  };

  // ---- up-sweep: L_{k+1}[i] = L_k[2i] (+ L_k[2i+1] when it exists) ----
  for (std::int64_t k = 0; k < levels; ++k) {
    co_await t.barrier(scope);
    const Address src = level_base[static_cast<std::size_t>(k)];
    const Address dst = level_base[static_cast<std::size_t>(k + 1)];
    const std::int64_t nk = size_of(k);
    const std::int64_t nk1 = size_of(k + 1);
    if (self != kNoWorker) {
      for (Address i = self; i < nk1; i += workers) {
        const Word a = co_await t.read(space, src + 2 * i);
        Word v = a;
        if (2 * i + 1 < nk) {
          const Word b = co_await t.read(space, src + 2 * i + 1);
          co_await t.compute();
          v = a + b;
        }
        co_await t.write(space, dst + i, v);
      }
    }
  }

  // ---- down-sweep: exclusive prefixes flow down; the level-0 pass
  // produces INCLUSIVE results in place (each pair is handled by one
  // thread, so the read-before-overwrite of L_k[2i] is race-free) ----
  for (std::int64_t k = levels - 1; k >= 0; --k) {
    co_await t.barrier(scope);
    const Address lk = level_base[static_cast<std::size_t>(k)];
    const Address ek1 = level_base[static_cast<std::size_t>(k + 1)];
    const std::int64_t nk = size_of(k);
    const std::int64_t nk1 = size_of(k + 1);
    const bool top = k + 1 == levels;   // E_top is the single value 0
    const bool leaf = k == 0;           // emit inclusive at the leaves
    if (self != kNoWorker) {
      for (Address i = self; i < nk1; i += workers) {
        const Word e = top ? 0 : co_await t.read(space, ek1 + i);
        const Word a = co_await t.read(space, lk + 2 * i);
        co_await t.compute();
        if (2 * i + 1 < nk) {
          Word right = e + a;
          if (leaf) {
            const Word b = co_await t.read(space, lk + 2 * i + 1);
            co_await t.compute();
            co_await t.write(space, lk + 2 * i, e + a);
            co_await t.write(space, lk + 2 * i + 1, right + b);
          } else {
            co_await t.write(space, lk + 2 * i, e);
            co_await t.write(space, lk + 2 * i + 1, right);
          }
        } else {
          co_await t.write(space, lk + 2 * i, leaf ? e + a : e);
        }
      }
    }
  }
  co_await t.barrier(scope);
}

BaselineScan prefix_sums_sequential(std::span<const Word> input) {
  const auto n = static_cast<std::int64_t>(input.size());
  HMM_REQUIRE(n >= 1, "prefix sums: n must be >= 1");
  SequentialRam ram(n);
  ram.load(0, input);
  Word acc = 0;
  for (Address i = 0; i < n; ++i) {
    acc += ram.read(i);
    ram.tick();
    ram.write(i, acc);
  }
  return {ram.dump(0, n), ram.time()};
}

BaselineScan prefix_sums_pram(std::span<const Word> input,
                              std::int64_t processors) {
  const auto n = static_cast<std::int64_t>(input.size());
  HMM_REQUIRE(n >= 1, "prefix sums: n must be >= 1");
  HMM_REQUIRE(processors >= 1, "prefix sums: processors must be >= 1");
  const std::int64_t p = std::min(processors, n);
  const std::int64_t c = ceil_div(n, p);  // block size per processor

  // Memory: data, block totals (double-buffered for the Hillis-Steele
  // block scan).
  Pram pram(processors, n + 2 * p, Pram::Mode::kCrcw);
  pram.load(0, input);
  const Address blocks = n, blocks_alt = n + p;

  // 1. Sequential scan inside each block: c - 1 dependent steps.
  for (std::int64_t j = 1; j < c; ++j) {
    pram.parallel_step(p, [&](std::int64_t i, PramAccess& a) {
      const Address at = i * c + j;
      if (at < n) a.write(at, a.read(at) + a.read(at - 1));
    });
  }
  // 2. Hillis-Steele scan of the p block totals: log p steps.
  pram.parallel_step(p, [&](std::int64_t i, PramAccess& a) {
    const Address end = std::min(n, (i + 1) * c) - 1;
    a.write(blocks + i, end >= i * c ? a.read(end) : 0);
  });
  Address cur = blocks, alt = blocks_alt;
  for (std::int64_t off = 1; off < p; off *= 2) {
    pram.parallel_step(p, [&](std::int64_t i, PramAccess& a) {
      const Word v = a.read(cur + i);
      a.write(alt + i, i >= off ? v + a.read(cur + i - off) : v);
    });
    std::swap(cur, alt);
  }
  // 3. Add the previous block's inclusive total as the carry.
  for (std::int64_t j = 0; j < c; ++j) {
    pram.parallel_step(p, [&](std::int64_t i, PramAccess& a) {
      if (i == 0) return;
      const Address at = i * c + j;
      if (at < n) a.write(at, a.read(at) + a.read(cur + i - 1));
    });
  }
  return {pram.dump(0, n), pram.time()};
}

namespace {

MachineScan prefix_sums_standalone(std::span<const Word> input,
                                   std::int64_t threads, std::int64_t width,
                                   Cycle latency, MemorySpace space,
                                   EngineObserver* observer,
                                   bool fast_forward) {
  const auto n = static_cast<std::int64_t>(input.size());
  HMM_REQUIRE(n >= 1, "prefix sums: n must be >= 1");
  const std::int64_t size = n + prefix_sums_scratch_size(n);
  Machine machine = space == MemorySpace::kShared
                        ? Machine::dmm(width, latency, threads, size)
                        : Machine::umm(width, latency, threads, size);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  BankMemory& mem = space == MemorySpace::kShared
                        ? machine.shared_memory(0)
                        : machine.global_memory();
  mem.load(0, input);
  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    co_await device_prefix_sums(t, space, 0, n, n, t.thread_id(), threads,
                                BarrierScope::kMachine);
  });
  return {mem.dump(0, n), std::move(report)};
}

}  // namespace

MachineScan prefix_sums_dmm(std::span<const Word> input, std::int64_t threads,
                            std::int64_t width, Cycle latency) {
  return prefix_sums_standalone(input, threads, width, latency,
                                MemorySpace::kShared, nullptr,
                                /*fast_forward=*/true);
}

MachineScan prefix_sums_umm(std::span<const Word> input, std::int64_t threads,
                            std::int64_t width, Cycle latency,
                            EngineObserver* observer, bool fast_forward) {
  return prefix_sums_standalone(input, threads, width, latency,
                                MemorySpace::kGlobal, observer, fast_forward);
}

MachineScan prefix_sums_hmm(std::span<const Word> input, std::int64_t num_dmms,
                            std::int64_t threads_per_dmm, std::int64_t width,
                            Cycle latency, EngineObserver* observer,
                            bool fast_forward, const RunContext& run) {
  const auto n = static_cast<std::int64_t>(input.size());
  HMM_REQUIRE(n >= 1, "prefix sums: n must be >= 1");
  HMM_REQUIRE(num_dmms >= 1 && n % num_dmms == 0,
              "prefix sums: n must be a multiple of d");
  const std::int64_t d = num_dmms;
  const std::int64_t c = n / d;  // slice per DMM

  // Shared layout: slice, its scan scratch, then (DMM 0 only) the d block
  // sums and their scan scratch.
  const Address s_slice = 0;
  const Address s_scr = c;
  const Address s_blocks = s_scr + prefix_sums_scratch_size(c);
  const std::int64_t shared_size =
      s_blocks + d + (d > 1 ? prefix_sums_scratch_size(d) : 0);
  // Global layout: data, block sums.
  const std::int64_t global_size = n + d;

  Machine machine = Machine::hmm(width, latency, d, threads_per_dmm,
                                 shared_size, global_size, run);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  machine.global_memory().load(0, input);

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t self = t.local_thread_id();
    const std::int64_t workers = t.dmm_thread_count();
    const Address g0 = t.dmm_id() * c;

    // 1. Stage this DMM's slice into shared memory (coalesced).
    co_await device_copy(t, MemorySpace::kShared, s_slice,
                         MemorySpace::kGlobal, g0, c, self, workers);
    co_await t.barrier(BarrierScope::kDmm);

    // 2. Local inclusive scan at latency 1.
    co_await device_prefix_sums(t, MemorySpace::kShared, s_slice, c, s_scr,
                                self, workers, BarrierScope::kDmm);

    // 3. Publish the block total (the slice's last inclusive value).
    if (self == 0) {
      const Word total = co_await t.read(MemorySpace::kShared, s_slice + c - 1);
      co_await t.write(MemorySpace::kGlobal, n + t.dmm_id(), total);
    }
    co_await t.barrier(BarrierScope::kMachine);

    // 4. DMM(0) scans the d block totals in ITS shared memory.
    if (t.dmm_id() == 0) {
      const std::int64_t stagers = std::min(workers, d);
      co_await device_copy(t, MemorySpace::kShared, s_blocks,
                           MemorySpace::kGlobal, n, d,
                           self < stagers ? self : kNoWorker, stagers);
      co_await t.barrier(BarrierScope::kDmm);
      co_await device_prefix_sums(t, MemorySpace::kShared, s_blocks, d,
                                  s_blocks + d, self, workers,
                                  BarrierScope::kDmm);
      co_await device_copy(t, MemorySpace::kGlobal, n, MemorySpace::kShared,
                           s_blocks, d, self < stagers ? self : kNoWorker,
                           stagers);
    }
    co_await t.barrier(BarrierScope::kMachine);

    // 5. Everyone fetches its carry (a broadcast read) and writes the
    // carried slice back, coalesced.
    Word carry = 0;
    if (t.dmm_id() > 0) {
      carry = co_await t.read(MemorySpace::kGlobal, n + t.dmm_id() - 1);
    }
    for (Address i = self; i < c; i += workers) {
      const Word v = co_await t.read(MemorySpace::kShared, s_slice + i);
      co_await t.compute();
      co_await t.write(MemorySpace::kGlobal, g0 + i, v + carry);
    }
  });
  return {machine.global_memory().dump(0, n), std::move(report)};
}

// ---- plan twins (plans.hpp) -------------------------------------------------

namespace {

/// Symbolic device_prefix_sums: identical level layout, loop structure
/// and operation order (including the odd-tail branches).
void plan_device_prefix_sums(analysis::PlanCtx& c, MemorySpace space,
                             Address base, std::int64_t n, Address scratch,
                             std::int64_t self, std::int64_t workers,
                             BarrierScope scope) {
  if (n == 1) return;
  const std::vector<std::int64_t> sizes = level_sizes(n);
  const auto levels = static_cast<std::int64_t>(sizes.size());
  std::vector<Address> level_base(static_cast<std::size_t>(levels) + 1);
  level_base[0] = base;
  Address cursor = scratch;
  for (std::int64_t k = 1; k <= levels; ++k) {
    level_base[static_cast<std::size_t>(k)] = cursor;
    cursor += sizes[static_cast<std::size_t>(k - 1)];
  }
  auto size_of = [&](std::int64_t k) {
    return k == 0 ? n : sizes[static_cast<std::size_t>(k - 1)];
  };

  for (std::int64_t k = 0; k < levels; ++k) {
    c.barrier(scope);
    const Address src = level_base[static_cast<std::size_t>(k)];
    const Address dst = level_base[static_cast<std::size_t>(k + 1)];
    const std::int64_t nk = size_of(k);
    const std::int64_t nk1 = size_of(k + 1);
    if (self != kNoWorker) {
      for (Address i = self; i < nk1; i += workers) {
        c.read(space, src + 2 * i);
        if (2 * i + 1 < nk) {
          c.read(space, src + 2 * i + 1);
          c.compute();
        }
        c.write(space, dst + i);
      }
    }
  }

  for (std::int64_t k = levels - 1; k >= 0; --k) {
    c.barrier(scope);
    const Address lk = level_base[static_cast<std::size_t>(k)];
    const Address ek1 = level_base[static_cast<std::size_t>(k + 1)];
    const std::int64_t nk = size_of(k);
    const std::int64_t nk1 = size_of(k + 1);
    const bool top = k + 1 == levels;
    const bool leaf = k == 0;
    if (self != kNoWorker) {
      for (Address i = self; i < nk1; i += workers) {
        if (!top) c.read(space, ek1 + i);
        c.read(space, lk + 2 * i);
        c.compute();
        if (2 * i + 1 < nk) {
          if (leaf) {
            c.read(space, lk + 2 * i + 1);
            c.compute();
          }
          c.write(space, lk + 2 * i);
          c.write(space, lk + 2 * i + 1);
        } else {
          c.write(space, lk + 2 * i);
        }
      }
    }
  }
  c.barrier(scope);
}

}  // namespace

std::optional<analysis::AccessPlan> build_scan_plan(const PlanPoint& point) {
  const std::int64_t n = point.n;
  HMM_REQUIRE(n >= 1, "scan plan: n must be >= 1");
  if (point.model == "umm") {
    auto plan = analysis::build_access_plan(
        "scan/umm", {point.w, 1, point.p}, [&](analysis::PlanCtx& c) {
          c.set_label("blelloch");
          plan_device_prefix_sums(c, MemorySpace::kGlobal, 0, n, n,
                                  c.thread_id(), point.p,
                                  BarrierScope::kMachine);
        });
    plan.claimed_groups = 2;
    return plan;
  }
  if (point.model != "hmm") return std::nullopt;

  const std::int64_t d = point.d;
  HMM_REQUIRE(d >= 1 && n % d == 0, "scan plan: n must be a multiple of d");
  HMM_REQUIRE(point.p % d == 0, "scan plan: d must divide p");
  const std::int64_t slice = n / d;
  const std::int64_t pd = point.p / d;
  const Address s_slice = 0;
  const Address s_scr = slice;
  const Address s_blocks = s_scr + prefix_sums_scratch_size(slice);
  auto plan = analysis::build_access_plan(
      "scan/hmm", {point.w, d, pd}, [&](analysis::PlanCtx& c) {
        const std::int64_t self = c.local_thread_id();
        const Address g0 = c.dmm_id() * slice;

        c.set_label("stage-in");
        plan_device_copy(c, MemorySpace::kShared, s_slice,
                         MemorySpace::kGlobal, g0, slice, self, pd);
        c.barrier(BarrierScope::kDmm);

        c.set_label("local-scan");
        plan_device_prefix_sums(c, MemorySpace::kShared, s_slice, slice,
                                s_scr, self, pd, BarrierScope::kDmm);

        c.set_label("publish-block-sum");
        if (self == 0) {
          c.read(MemorySpace::kShared, s_slice + slice - 1);
          c.write(MemorySpace::kGlobal, n + c.dmm_id());
        }
        c.barrier(BarrierScope::kMachine);

        if (c.dmm_id() == 0) {
          c.set_label("block-scan");
          const std::int64_t stagers = std::min(pd, d);
          plan_device_copy(c, MemorySpace::kShared, s_blocks,
                           MemorySpace::kGlobal, n, d,
                           self < stagers ? self : kNoWorker, stagers);
          c.barrier(BarrierScope::kDmm);
          plan_device_prefix_sums(c, MemorySpace::kShared, s_blocks, d,
                                  s_blocks + d, self, pd, BarrierScope::kDmm);
          plan_device_copy(c, MemorySpace::kGlobal, n, MemorySpace::kShared,
                           s_blocks, d, self < stagers ? self : kNoWorker,
                           stagers);
        }
        c.barrier(BarrierScope::kMachine);

        c.set_label("carry-and-write-back");
        if (c.dmm_id() > 0) {
          c.read(MemorySpace::kGlobal, n + c.dmm_id() - 1);
        }
        for (Address i = self; i < slice; i += pd) {
          c.read(MemorySpace::kShared, s_slice + i);
          c.compute();
          c.write(MemorySpace::kGlobal, g0 + i);
        }
      });
  plan.claimed_degree = 2;
  plan.claimed_groups = 1;
  return plan;
}

}  // namespace hmm::alg
