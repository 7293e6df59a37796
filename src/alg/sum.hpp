// The sum problem (§V–§VII) on every model of Table I.
//
// The Machine& overloads load nothing themselves: they run the algorithm
// on inputs the caller already wrote into the machine's memory and return
// the total together with the simulated time.  The span overloads build
// the machine, load the input and run.  Layout conventions and memory
// demands are documented per function, for callers sizing their own
// machines.
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"
#include "machine/machine.hpp"
#include "machine/pram.hpp"
#include "machine/sequential.hpp"

namespace hmm::alg {

/// Result of a timed run on a memory machine.
struct MachineSum {
  Word sum = 0;
  RunReport report;
};

/// Result of a timed run on a baseline model.
struct BaselineSum {
  Word sum = 0;
  Cycle time = 0;
};

// ---- baselines (§V) -------------------------------------------------------

/// O(n) sequential sum; advances ram.time() by the op count.
BaselineSum sum_sequential(SequentialRam& ram, Address base, std::int64_t n);
BaselineSum sum_sequential(std::span<const Word> input);

/// Lemma 3: O(n/p + log n) EREW-PRAM sum.  Destroys A[base..base+n).
BaselineSum sum_pram(Pram& pram, Address base, std::int64_t n);
BaselineSum sum_pram(std::span<const Word> input, std::int64_t processors);

// ---- Lemma 5: the DMM and the UMM ----------------------------------------

/// Tree sum of A[base..base+n) in `space` using all machine threads.
/// Destroys the input region; the total ends in A[base].
MachineSum sum_mm(Machine& machine, MemorySpace space, Address base,
                  std::int64_t n);

/// Convenience: builds a standalone DMM (space = shared) or UMM
/// (space = global), loads `input`, runs, returns.  The optional
/// `observer` (telemetry sink, metrics registry, checker...) is attached
/// to the machine for the run.
MachineSum sum_dmm(std::span<const Word> input, std::int64_t threads,
                   std::int64_t width, Cycle latency);
MachineSum sum_umm(std::span<const Word> input, std::int64_t threads,
                   std::int64_t width, Cycle latency,
                   EngineObserver* observer = nullptr,
                   bool fast_forward = true);

// ---- Lemma 6: straightforward HMM sum (one DMM, global memory only) ------

/// Uses only DMM(0)'s threads; column sums over a p0-column layout, then
/// a Lemma-5 tree on the GLOBAL memory (this is the point of Lemma 6: no
/// shared memory, so every tree level pays latency l).
/// Global layout: A[0..n) input (destroyed? no — input preserved),
/// column sums in A[n..n+p0), total returned and left in A[n].
MachineSum sum_hmm_straightforward(Machine& machine, std::int64_t n);
MachineSum sum_hmm_straightforward(std::span<const Word> input,
                                   std::int64_t p0, std::int64_t width,
                                   Cycle latency);

// ---- Theorem 7: the full HMM sum ------------------------------------------

/// All p threads across d DMMs: global column sums into registers,
/// per-DMM tree in latency-1 shared memory, one partial per DMM to
/// global scratch, final staged tree on DMM(0).
/// Global layout: A[0..n) input (preserved), partials in A[n..n+d),
/// total returned and left in A[n].
/// Shared demand per DMM: max(threads_per_dmm, d) cells.
MachineSum sum_hmm(Machine& machine, std::int64_t n);
MachineSum sum_hmm(std::span<const Word> input, std::int64_t num_dmms,
                   std::int64_t threads_per_dmm, std::int64_t width,
                   Cycle latency, EngineObserver* observer = nullptr,
                   bool fast_forward = true, const RunContext& run = {});

}  // namespace hmm::alg
