// Approximate string matching — the paper's companion application [18]
// ("Efficient implementations of the approximate string matching on the
// memory machine models", ICNC 2012).
//
// Problem: for a pattern P of length m and a text T of length n (m << n),
// compute for every text position j the minimum edit distance between P
// and any substring of T ending at j (semi-global alignment):
//
//   D[0][j] = 0,  D[i][0] = i
//   D[i][j] = min( D[i-1][j-1] + (P[i-1] != T[j-1]),
//                  D[i-1][j] + 1, D[i][j-1] + 1 )
//
// Parallelisation: anti-diagonal wavefront — all cells with i + j = k are
// independent.  On a flat UMM every one of the n + m diagonals pays the
// global latency, so T = Θ(mn/w + mnl/p + (n+m)l).  On the HMM each DMM
// computes a text slice in its latency-1 shared memory; a halo of 2m
// columns makes slices exact (D[i][j] only depends on T[j-2i .. j), since
// D[i][j] <= i bounds the witness substring's length by 2i).  That turns
// the per-diagonal latency into 1: T = Θ(n/w + nl/p + (n/d + m) + l).
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "machine/machine.hpp"
#include "machine/sequential.hpp"

namespace hmm::alg {

struct MachineMatch {
  std::vector<Word> distance;  ///< distance[j] = min edits ending at T[j]
  RunReport report;
};

struct BaselineMatch {
  std::vector<Word> distance;
  Cycle time = 0;
};

/// O(mn) sequential DP (oracle + baseline).
BaselineMatch string_match_sequential(std::span<const Word> pattern,
                                      std::span<const Word> text);

/// Anti-diagonal wavefront on a standalone UMM (global memory only).
MachineMatch string_match_umm(std::span<const Word> pattern,
                              std::span<const Word> text,
                              std::int64_t threads, std::int64_t width,
                              Cycle latency,
                              EngineObserver* observer = nullptr,
                              bool fast_forward = true);

/// Sliced wavefront on the HMM: each DMM owns n/d text positions plus a
/// 2m halo, computes its band in shared memory, and writes its slice of
/// the result back.  Requires n % d == 0.
MachineMatch string_match_hmm(std::span<const Word> pattern,
                              std::span<const Word> text,
                              std::int64_t num_dmms,
                              std::int64_t threads_per_dmm,
                              std::int64_t width, Cycle latency,
                              EngineObserver* observer = nullptr,
                              bool fast_forward = true,
                              const RunContext& run = {});

}  // namespace hmm::alg
