// Dense matrix multiplication C = A * B on the memory machine models —
// the motivating GPU workload of the paper's introduction (§I cites GPU
// computing applications throughout), and the cleanest showcase of why
// the HMM's two-level memory matters: the naive kernel reads every
// operand r times from the latency-l global memory, while the tiled
// kernel stages t x t blocks into the latency-1 shared memories and
// reuses each staged word t times.
//
//   naive UMM:  T = Θ(r^3/w + r^3 l/p + l)          (2r^3 global words)
//   tiled HMM:  T = Θ(r^3/(dw) + r^3/(tw) + r^3 l/(tp) + l)
//                                                    (2r^3/t global words)
//
// All matrices are r x r row-major.
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "machine/machine.hpp"
#include "machine/sequential.hpp"

namespace hmm::alg {

struct MachineMatmul {
  std::vector<Word> c;
  RunReport report;
};

struct BaselineMatmul {
  std::vector<Word> c;
  Cycle time = 0;
};

/// O(r^3) sequential triple loop (oracle + baseline).
BaselineMatmul matmul_sequential(std::span<const Word> a,
                                 std::span<const Word> b, std::int64_t rows);

/// Naive kernel on a standalone UMM: one virtual thread per C cell
/// (strip-mined), every operand fetched from global memory.  Coalesced
/// (A broadcasts per warp, B rows are contiguous) but reuse-free.
MachineMatmul matmul_umm(std::span<const Word> a, std::span<const Word> b,
                         std::int64_t rows, std::int64_t threads,
                         std::int64_t width, Cycle latency,
                         EngineObserver* observer = nullptr,
                         bool fast_forward = true);

/// Tiled kernel on the HMM: C is cut into tile x tile blocks dealt
/// round-robin to the DMMs; each DMM sweeps the k-tiles, staging an
/// A-tile and a B-tile into shared memory and multiply-accumulating at
/// latency 1.  DMMs never synchronise with each other (block-independent
/// work), so the global pipeline is the only shared resource.
/// Requires rows % tile == 0.
MachineMatmul matmul_hmm_tiled(std::span<const Word> a,
                               std::span<const Word> b, std::int64_t rows,
                               std::int64_t num_dmms,
                               std::int64_t threads_per_dmm,
                               std::int64_t width, Cycle latency,
                               std::int64_t tile,
                               EngineObserver* observer = nullptr,
                               bool fast_forward = true,
                               const RunContext& run = {});

}  // namespace hmm::alg
