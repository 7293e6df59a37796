// Prefix sums (scan) — the companion result the paper cites as [17]
// ("An optimal parallel prefix-sums algorithm on the memory machine
// models for GPUs", ICA3PP 2012): inclusive prefix sums in
// O(n/w + nl/p + l log n) time on the DMM/UMM, and the Theorem-7-style
// HMM version in O(n/w + nl/p + l + log n).
//
// Implementation: a work-efficient Blelloch scan over LEVEL-COMPACTED
// arrays.  Classic in-place Blelloch strides by 2^k and pays min(2^k, w)
// bank conflicts per warp; storing each level contiguously caps every
// access at stride 2 — at most 2 banks / 2 address groups per warp —
// which preserves the contiguous-access bound up to a factor of 2.
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "machine/machine.hpp"
#include "machine/pram.hpp"
#include "machine/sequential.hpp"
#include "machine/task.hpp"
#include "machine/thread_ctx.hpp"

namespace hmm::alg {

struct MachineScan {
  std::vector<Word> prefix;  ///< inclusive prefix sums
  RunReport report;
};

struct BaselineScan {
  std::vector<Word> prefix;
  Cycle time = 0;
};

/// Scratch cells device_prefix_sums needs beyond the data itself
/// (the compacted levels 1..log n).
std::int64_t prefix_sums_scratch_size(std::int64_t n);

/// Device-side inclusive scan of A[base..base+n) in `space`, scratch at
/// `scratch` (>= prefix_sums_scratch_size(n) cells).  Collective over
/// `scope`; self/workers as in device.hpp.
SubTask device_prefix_sums(ThreadCtx& t, MemorySpace space, Address base,
                           std::int64_t n, Address scratch, std::int64_t self,
                           std::int64_t workers, BarrierScope scope);

/// O(n) sequential scan (oracle + Table-row baseline).
BaselineScan prefix_sums_sequential(std::span<const Word> input);

/// O(n/p + log n) PRAM scan (CREW).
BaselineScan prefix_sums_pram(std::span<const Word> input,
                              std::int64_t processors);

/// The [17] bound on a standalone DMM / UMM: O(n/w + nl/p + l log n).
MachineScan prefix_sums_dmm(std::span<const Word> input, std::int64_t threads,
                            std::int64_t width, Cycle latency);
MachineScan prefix_sums_umm(std::span<const Word> input, std::int64_t threads,
                            std::int64_t width, Cycle latency,
                            EngineObserver* observer = nullptr,
                            bool fast_forward = true);

/// HMM version: stage slices into the latency-1 shared memories, scan
/// locally, scan the d block sums on DMM(0), add carries, copy back —
/// O(n/w + nl/p + l + log n).  Requires n % d == 0.
MachineScan prefix_sums_hmm(std::span<const Word> input, std::int64_t num_dmms,
                            std::int64_t threads_per_dmm, std::int64_t width,
                            Cycle latency, EngineObserver* observer = nullptr,
                            bool fast_forward = true,
                            const RunContext& run = {});

}  // namespace hmm::alg
