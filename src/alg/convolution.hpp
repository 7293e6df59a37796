// The direct convolution problem (§V, §VIII, §IX) on every model of
// Table I.
//
// Inputs: a filter a of length m and a signal x of length n + m - 1;
// output z of length n with z[i] = sum_{j<m} a[j] * x[i+j] (the paper's
// indexing).  The paper assumes m <= n ("m << n from the practical point
// of view"); the implementations accept any m >= 1 but the HMM variant
// requires m <= n/d (Corollary 10's regime, where each DMM's slice
// dominates the halo).
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "machine/machine.hpp"
#include "machine/pram.hpp"
#include "machine/sequential.hpp"

namespace hmm::alg {

struct MachineConv {
  std::vector<Word> z;
  RunReport report;
};

struct BaselineConv {
  std::vector<Word> z;
  Cycle time = 0;
};

/// Length x must have for a given (m, n).
constexpr std::int64_t conv_signal_length(std::int64_t m, std::int64_t n) {
  return n + m - 1;
}

/// Reference O(mn) direct convolution with op counting (§V).
BaselineConv convolution_sequential(std::span<const Word> a,
                                    std::span<const Word> x);

/// Lemma 4: O(mn/p + log m) PRAM direct convolution (CREW: a[j] is read
/// concurrently).  Supports any p >= 1; p > n requires n | p.
BaselineConv convolution_pram(std::span<const Word> a,
                              std::span<const Word> x,
                              std::int64_t processors);

/// Theorem 8 on an existing machine: convolve in `space` with all machine
/// threads.  Layout: caller places a at address `a_base`, x at `x_base`;
/// z lands at `z_base`; when p > n a scratch region of (p/n)*n cells at
/// `scratch_base` is used.  Returns z.
MachineConv convolution_mm(Machine& machine, MemorySpace space,
                           Address a_base, std::int64_t m, Address x_base,
                           std::int64_t n, Address z_base,
                           Address scratch_base);

/// Convenience: standalone DMM / UMM sized automatically.
MachineConv convolution_dmm(std::span<const Word> a, std::span<const Word> x,
                            std::int64_t threads, std::int64_t width,
                            Cycle latency);
MachineConv convolution_umm(std::span<const Word> a, std::span<const Word> x,
                            std::int64_t threads, std::int64_t width,
                            Cycle latency,
                            EngineObserver* observer = nullptr,
                            bool fast_forward = true);

/// Theorem 9 / Corollary 10: the three-step HMM convolution — stage a and
/// the DMM's signal slice into shared memory, convolve there at latency
/// 1 (re-using the Theorem-8 subroutine), copy the result back.
/// Global layout: a at [0, m), x at [m, m + n+m-1), z at [m + n+m-1, ...).
/// Requires n % d == 0 and m <= n/d.
MachineConv convolution_hmm(Machine& machine, std::int64_t m, std::int64_t n);
MachineConv convolution_hmm(std::span<const Word> a, std::span<const Word> x,
                            std::int64_t num_dmms,
                            std::int64_t threads_per_dmm, std::int64_t width,
                            Cycle latency,
                            EngineObserver* observer = nullptr,
                            bool fast_forward = true,
                            const RunContext& run = {});

/// Capacity-aware Theorem 9: real shared memories are tiny (§III: 48KB
/// against a 2GB global memory), so a DMM whose n/d slice does not fit
/// processes it in output chunks of `chunk` cells — the filter stays
/// resident, each chunk stages its x window, convolves at latency 1 and
/// writes back before the next chunk is staged.  Asymptotics are
/// unchanged (every x word is still staged once... plus the m-halo per
/// chunk, an m/chunk overhead factor); shared demand drops from
/// Θ(m + n/d) to Θ(m + chunk).  Requires n % d == 0, chunk >= 1 and
/// m <= chunk (the halo must fit the window).
MachineConv convolution_hmm_chunked(std::span<const Word> a,
                                    std::span<const Word> x,
                                    std::int64_t num_dmms,
                                    std::int64_t threads_per_dmm,
                                    std::int64_t width, Cycle latency,
                                    std::int64_t chunk);

}  // namespace hmm::alg
