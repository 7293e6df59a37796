// Bitonic sort on the memory machine models — the sorting network of the
// GPU era the paper models (oblivious, branch-free, and every one of its
// compare-exchange stages is a contiguous-run access pattern, i.e. the
// kind of algorithm the DMM/UMM reward).
//
// A stage (k, j) pairs element i with i ^ j; the active lower indices
// form contiguous runs of length j, so a warp's reads and writes touch
// at most two address groups / no conflicting banks: every stage costs
// Θ(n/w + nl/p + l) by Theorem 2, and the full network has
// log n (log n + 1)/2 stages:
//
//   UMM:  T = Θ((n/w + nl/p + l) log^2 n)
//   HMM:  all stages with stride < n/d run inside the latency-1 shared
//         memories (each DMM owns an aligned block); only the
//         O(log^2 d) cross-DMM stages touch global memory:
//         T = Θ((n/w + nl/p) log^2 n + l log^2 d + ...)
//
// n must be a power of two (the classic bitonic restriction); the HMM
// variant additionally needs d and n/d to be powers of two.
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "machine/machine.hpp"

namespace hmm::alg {

struct MachineSort {
  std::vector<Word> sorted;
  RunReport report;
};

/// Bitonic sort entirely in one address space (standalone DMM or UMM).
MachineSort sort_dmm(std::span<const Word> input, std::int64_t threads,
                     std::int64_t width, Cycle latency);
MachineSort sort_umm(std::span<const Word> input, std::int64_t threads,
                     std::int64_t width, Cycle latency,
                     EngineObserver* observer = nullptr,
                     bool fast_forward = true);

/// Same, on an existing machine (e.g. one carrying an AccessChecker):
/// sorts the n words the caller loaded at [0, n) of `space` in place.
MachineSort sort_mm(Machine& machine, MemorySpace space, std::int64_t n);

/// Hybrid HMM bitonic sort: each DMM owns the aligned n/d block of the
/// array; stages with stride < n/d run in shared memory, cross-block
/// stages run on global memory.
MachineSort sort_hmm(std::span<const Word> input, std::int64_t num_dmms,
                     std::int64_t threads_per_dmm, std::int64_t width,
                     Cycle latency, EngineObserver* observer = nullptr,
                     bool fast_forward = true, const RunContext& run = {});

/// Same, on an existing HMM with the input loaded at global [0, n);
/// shared memories must hold n/d cells.
MachineSort sort_hmm(Machine& machine, std::int64_t n);

}  // namespace hmm::alg
