#include "alg/matmul.hpp"

#include "alg/device.hpp"
#include "core/error.hpp"
#include "core/mathutil.hpp"

namespace hmm::alg {

namespace {

void check_matrices(std::span<const Word> a, std::span<const Word> b,
                    std::int64_t rows) {
  HMM_REQUIRE(rows >= 1, "matmul: rows must be >= 1");
  HMM_REQUIRE(static_cast<std::int64_t>(a.size()) == rows * rows &&
                  static_cast<std::int64_t>(b.size()) == rows * rows,
              "matmul: A and B must be rows x rows");
}

}  // namespace

BaselineMatmul matmul_sequential(std::span<const Word> a,
                                 std::span<const Word> b, std::int64_t rows) {
  check_matrices(a, b, rows);
  const std::int64_t cells = rows * rows;
  SequentialRam ram(3 * cells);
  const Address ax = 0, bx = cells, cx = 2 * cells;
  ram.load(ax, a);
  ram.load(bx, b);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < rows; ++j) {
      Word acc = 0;
      for (std::int64_t k = 0; k < rows; ++k) {
        acc += ram.read(ax + i * rows + k) * ram.read(bx + k * rows + j);
        ram.tick();
      }
      ram.write(cx + i * rows + j, acc);
    }
  }
  return {ram.dump(cx, cells), ram.time()};
}

MachineMatmul matmul_umm(std::span<const Word> a, std::span<const Word> b,
                         std::int64_t rows, std::int64_t threads,
                         std::int64_t width, Cycle latency,
                         EngineObserver* observer, bool fast_forward) {
  check_matrices(a, b, rows);
  const std::int64_t cells = rows * rows;
  Machine machine = Machine::umm(width, latency, threads, 3 * cells);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  const Address ax = 0, bx = cells, cx = 2 * cells;
  machine.global_memory().load(ax, a);
  machine.global_memory().load(bx, b);

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t p = t.num_threads();
    // Cell sweep in C-row-major order: within a warp i is (usually)
    // fixed and j consecutive, so A[i][k] is a broadcast and B[k][j] is
    // a contiguous run — coalesced but with zero reuse.
    for (Address idx = t.thread_id(); idx < cells; idx += p) {
      const std::int64_t i = idx / rows, j = idx % rows;
      Word acc = 0;
      for (std::int64_t k = 0; k < rows; ++k) {
        const Word av = co_await t.read(MemorySpace::kGlobal, ax + i * rows + k);
        const Word bv = co_await t.read(MemorySpace::kGlobal, bx + k * rows + j);
        co_await t.compute();
        acc += av * bv;
      }
      co_await t.write(MemorySpace::kGlobal, cx + idx, acc);
    }
  });
  return {machine.global_memory().dump(cx, cells), std::move(report)};
}

MachineMatmul matmul_hmm_tiled(std::span<const Word> a,
                               std::span<const Word> b, std::int64_t rows,
                               std::int64_t num_dmms,
                               std::int64_t threads_per_dmm,
                               std::int64_t width, Cycle latency,
                               std::int64_t tile, EngineObserver* observer,
                               bool fast_forward, const RunContext& run) {
  check_matrices(a, b, rows);
  HMM_REQUIRE(tile >= 1 && rows % tile == 0,
              "matmul: tile must divide rows");
  const std::int64_t cells = rows * rows;
  const std::int64_t t2 = tile * tile;
  const std::int64_t grid = rows / tile;  // tiles per matrix dimension

  // Shared layout per DMM: A-tile, B-tile, C-tile accumulators.
  const Address s_a = 0, s_b = t2, s_c = 2 * t2;
  Machine machine = Machine::hmm(width, latency, num_dmms, threads_per_dmm,
                                 3 * t2, 3 * cells, run);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  const Address ax = 0, bx = cells, cx = 2 * cells;
  machine.global_memory().load(ax, a);
  machine.global_memory().load(bx, b);

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t self = t.local_thread_id();
    const std::int64_t workers = t.dmm_thread_count();
    const std::int64_t d = t.num_dmms();

    // C tiles are dealt round-robin over the DMMs; the DMMs never need
    // to talk to each other.
    for (std::int64_t tidx = t.dmm_id(); tidx < grid * grid; tidx += d) {
      const std::int64_t ti = tidx / grid, tj = tidx % grid;

      // Zero the C-tile accumulators.
      for (Address c = self; c < t2; c += workers) {
        co_await t.write(MemorySpace::kShared, s_c + c, 0);
      }
      co_await t.barrier(BarrierScope::kDmm);

      for (std::int64_t kt = 0; kt < grid; ++kt) {
        // Stage A[ti, kt] and B[kt, tj] as flat 2D block copies so every
        // thread carries one cell and the global latencies overlap.
        co_await device_copy_2d(t, MemorySpace::kShared, s_a, tile,
                                MemorySpace::kGlobal,
                                ax + ti * tile * rows + kt * tile, rows, tile,
                                tile, self, workers);
        co_await device_copy_2d(t, MemorySpace::kShared, s_b, tile,
                                MemorySpace::kGlobal,
                                bx + kt * tile * rows + tj * tile, rows, tile,
                                tile, self, workers);
        co_await t.barrier(BarrierScope::kDmm);

        // Multiply-accumulate entirely at latency 1.  Within a warp j is
        // consecutive: As broadcasts, Bs rows are contiguous.
        for (Address c = self; c < t2; c += workers) {
          const std::int64_t i = c / tile, j = c % tile;
          Word acc = co_await t.read(MemorySpace::kShared, s_c + c);
          for (std::int64_t k = 0; k < tile; ++k) {
            const Word av =
                co_await t.read(MemorySpace::kShared, s_a + i * tile + k);
            const Word bv =
                co_await t.read(MemorySpace::kShared, s_b + k * tile + j);
            co_await t.compute();
            acc += av * bv;
          }
          co_await t.write(MemorySpace::kShared, s_c + c, acc);
        }
        co_await t.barrier(BarrierScope::kDmm);
      }

      // Write the finished tile back as one flat 2D block copy.
      co_await device_copy_2d(t, MemorySpace::kGlobal,
                              cx + ti * tile * rows + tj * tile, rows,
                              MemorySpace::kShared, s_c, tile, tile, tile,
                              self, workers);
      co_await t.barrier(BarrierScope::kDmm);
    }
  });
  return {machine.global_memory().dump(cx, cells), std::move(report)};
}

}  // namespace hmm::alg
