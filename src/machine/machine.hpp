// Machine — the cycle-accurate simulator for the DMM, the UMM and the HMM.
//
// One class covers all three models (§II, §III): a machine is d DMMs, each
// optionally owning a *shared memory* (banked, DMM conflict pricing),
// plus optionally one *global memory* (UMM coalescing pricing) whose
// single pipeline is shared by the warps of every DMM.  The named
// factories configure the three paper models:
//
//   Machine::dmm(w, l, p, size)            — one DMM, shared memory only
//   Machine::umm(w, l, p, size)            — one "DMM" of threads, global
//                                            memory only
//   Machine::hmm(w, l, d, p_per_dmm, shared_size, global_size, run)
//                                          — the HMM: shared latency 1,
//                                            global latency l, engine
//                                            threads and topology from
//                                            the RunContext
//
// Timing semantics are normative in DESIGN.md §4 and enforced by the
// engine in machine.cpp:
//   * warps execute warp-synchronously; per DMM one warp instruction
//     issues per time unit (this is what makes compute throughput d*w
//     operations per time unit, the paper's speed-up limitation);
//   * a warp's memory batch occupies k pipeline stages (bank conflicts on
//     shared, distinct address groups on global) and its issuer resumes
//     l time units after its last stage injected (Fig. 4);
//   * warps contend for pipelines in deterministic round-robin order.
//
// A kernel is any callable invoked once per thread to produce that
// thread's coroutine.  Machine::run is synchronous; the callable must
// stay alive for the duration of the call (binding a temporary lambda is
// fine).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "machine/frame_arena.hpp"
#include "machine/observer.hpp"
#include "machine/report.hpp"
#include "machine/task.hpp"
#include "machine/thread_ctx.hpp"
#include "machine/topology.hpp"
#include "mm/bank_memory.hpp"
#include "mm/batch_cost.hpp"
#include "mm/pattern_cache.hpp"
#include "mm/pipeline.hpp"

namespace hmm {

/// Size/latency of one memory.
struct MemorySpec {
  std::int64_t size = 0;
  Cycle latency = 1;
};

/// Interconnect pricing for one DMM whose HMM does not own the global
/// memory (multi-GPU topologies, src/machine/topology_spec.hpp).  A
/// global batch from such a DMM crosses the link, which costs
///
///   latency + ceil(requests / words_per_stage)
///
/// EXTRA pipeline stages on top of the UMM coalescing cost: the latency
/// term models the hop delay, the bandwidth term serializes the words
/// through the link.  Extra stages both delay the issuing warp's
/// data_ready and occupy the home pipeline longer, so remote traffic
/// backpressures local traffic — the contention a shared interconnect
/// actually creates.  words_per_stage == 0 means "no link" (a DMM local
/// to the home HMM).
struct DmmLink {
  Cycle latency = 0;
  std::int64_t words_per_stage = 0;
  bool active() const { return words_per_stage > 0; }
  friend bool operator==(const DmmLink&, const DmmLink&) = default;
};

/// Per-DMM deviations from the uniform (d, p, w, l) machine: the shape a
/// non-trivial --machine topology (TopologySpec::overlay) gives the HMM a
/// span driver builds.  It reaches Machine::hmm through
/// RunContext::topology.  All three vectors must have exactly one entry
/// per DMM of the machine being built; `shared` carries each DMM's
/// pipeline latency and a MINIMUM word count that is max-combined with
/// the driver's own size formula.
struct MachineOverlay {
  std::vector<std::int64_t> threads_per_dmm;
  std::vector<MemorySpec> shared;
  std::vector<DmmLink> links;
};

/// The per-run settings a caller hands down to the machine a span driver
/// builds (run::run_point -> alg::sum_hmm et al. -> Machine::hmm), so a
/// driver's machine is fully determined by its arguments.
struct RunContext {
  /// Engine worker threads (MachineConfig::threads); zero or negative
  /// inherits the calling thread's default.
  std::int64_t threads = 0;
  /// Per-DMM shapes and links to build instead of the uniform machine;
  /// null builds the uniform machine.  Not owned; read only while the
  /// factory runs.
  const MachineOverlay* topology = nullptr;
};

struct MachineConfig {
  std::int64_t width = 32;
  std::vector<std::int64_t> threads_per_dmm = {32};
  std::optional<MemorySpec> shared;  ///< per-DMM shared memory, DMM pricing
  std::optional<MemorySpec> global;  ///< one global memory, UMM pricing
  /// Per-DMM shared-memory specs (heterogeneous topologies).  Empty means
  /// "every DMM uses `shared`"; otherwise exactly one entry per DMM, and
  /// `shared` must still be set (it remains the has-shared flag and the
  /// uniform fallback for reporting).
  std::vector<MemorySpec> shared_per_dmm;
  /// Per-DMM interconnect links (empty = all DMMs local to the global
  /// memory; otherwise exactly one entry per DMM, inactive entries for
  /// local DMMs).
  std::vector<DmmLink> links;
  /// Bump-allocate coroutine frames from a per-run FrameArena (default).
  /// Off restores the pre-arena behaviour — every frame from global
  /// new/delete — and exists for A/B measurement
  /// (bench_engine_hotpath's "arena" section); results are identical
  /// either way, only allocation traffic changes.
  bool use_frame_arena = true;
  /// Round-pattern memoization and verified fast-forward replay of
  /// periodic warps (default on).  Results are identical either way —
  /// the replay path re-verifies every lane's request before trusting a
  /// recorded pattern and bails out to full simulation on any deviation
  /// — so this switch exists for A/B measurement and as a conservatism
  /// valve.  With an EngineObserver attached the replay shortcut
  /// disables itself (full simulation, so observers see every event);
  /// the profile cache stays on because cached profiles are exact.
  bool fast_forward = true;
  /// Engine worker threads for one run.  The engine shards the d DMMs
  /// across this many workers (DMM j belongs to worker j % N) and
  /// merges the globally-coupled rounds (global memory, machine-scope
  /// barriers, warp finishes) in serial pop order, so RunReports are
  /// bit-identical to the serial engine at any thread count.  0 means
  /// "inherit the calling thread's default" (see
  /// Machine::set_thread_engine_threads), which itself defaults to 1.
  /// Machine::hmm sets this field from RunContext::threads.
  /// The effective count is clamped to the number of DMMs, and to 1
  /// whenever an observer is attached — the serial-order event stream is
  /// only produced by the serial loop (same contract as fast-forward
  /// replay disabling under observers).
  std::int64_t threads = 0;
};

class Machine {
 public:
  using KernelFn = std::function<SimTask(ThreadCtx&)>;

  explicit Machine(MachineConfig config);

  // ---- factories for the three paper models ---------------------------
  static Machine dmm(std::int64_t width, Cycle latency,
                     std::int64_t num_threads, std::int64_t memory_size);
  static Machine umm(std::int64_t width, Cycle latency,
                     std::int64_t num_threads, std::int64_t memory_size);
  /// `run` sets the engine thread count and, for a non-trivial
  /// topology, replaces the uniform per-DMM shapes: each DMM takes the
  /// topology's thread count, shared latency and links, and the larger of
  /// `shared_size` and the topology's size floor.  The topology must
  /// describe exactly `num_dmms` DMMs.
  static Machine hmm(std::int64_t width, Cycle global_latency,
                     std::int64_t num_dmms, std::int64_t threads_per_dmm,
                     std::int64_t shared_size, std::int64_t global_size,
                     const RunContext& run = {}, Cycle shared_latency = 1);

  // ---- shape -----------------------------------------------------------
  const Topology& topology() const { return topology_; }
  std::int64_t width() const { return topology_.width(); }
  std::int64_t num_dmms() const { return topology_.num_dmms(); }
  std::int64_t num_threads() const { return topology_.total_threads(); }
  bool has_shared() const { return !shared_.empty(); }
  bool has_global() const { return global_.has_value(); }
  Cycle shared_latency() const;
  Cycle global_latency() const;

  // ---- memories (zero-cost host access for I/O) ------------------------
  BankMemory& shared_memory(DmmId dmm);
  const BankMemory& shared_memory(DmmId dmm) const;
  BankMemory& global_memory();
  const BankMemory& global_memory() const;

  /// Run one kernel to completion on all threads; returns the timing
  /// report.  Memory contents persist across runs; pipeline/exec counters
  /// are reset at the start of each run.
  RunReport run(const KernelFn& kernel);

  // ---- observation (analysis/checker.hpp et al.) -----------------------
  /// Attach `observer` to all subsequent runs (nullptr detaches).  The
  /// observer is not owned and must outlive every run it observes; the
  /// engine pays a single pointer null-check per event site when none is
  /// attached (see machine/observer.hpp for the event contract).
  void set_observer(EngineObserver* observer) { observer_ = observer; }
  EngineObserver* observer() const { return observer_; }

  // ---- round-pattern memoization (mm/pattern_cache.hpp) ----------------
  /// Enable/disable the pattern cache AND the fast-forward replay for all
  /// subsequent runs (overrides MachineConfig::fast_forward).
  void set_fast_forward(bool enabled) { config_.fast_forward = enabled; }

  // ---- run resources (frame arena + pattern cache) ---------------------
  /// The FrameArena (machine/frame_arena.hpp) and PatternCache
  /// (mm/pattern_cache.hpp) one thread's runs draw from.  A run resets
  /// the arena at its start (chunks are kept) and never resets the cache
  /// (entries are geometry-keyed exact profiles, valid for any machine),
  /// so a holder reused across runs stays WARM.  Warmth never changes
  /// results.  It is the one holder for both kinds of worker: each
  /// run::SweepRunner worker owns one for its thread's lifetime, and each
  /// engine worker i >= 1 of a threaded run uses slot i-1 of the
  /// machine's registry (worker_resource_count() below).
  struct WorkerResources {
    FrameArena arena;
    PatternCache cache;
  };

  /// Register `resources` as the CALLING thread's run resources (nullptr
  /// deregisters).  While registered, every run started on this thread —
  /// by any Machine, including those the convenience drivers
  /// (alg::sum_hmm etc.) build internally — uses them for engine worker
  /// 0 instead of the machine's own.  Not owned; must outlive the
  /// registration and every run under it, and must never be registered
  /// on two threads at once.
  static void set_thread_resources(WorkerResources* resources);
  static WorkerResources* thread_resources();

  /// The arena the next run on this thread will use: the thread's
  /// registered resources, otherwise the machine's own.
  const FrameArena& frame_arena() const;

  // ---- intra-run parallelism -------------------------------------------
  /// Engine worker threads for subsequent runs (overrides
  /// MachineConfig::threads; 0 restores "inherit the thread default").
  void set_engine_threads(std::int64_t threads) { config_.threads = threads; }
  std::int64_t engine_threads() const { return config_.threads; }
  /// Thread-local default for MachineConfig::threads == 0.  Callers that
  /// reach the span drivers without a RunContext set it around a
  /// dispatch; run::run_point passes RunContext::threads instead.  Values
  /// < 1 reset the default to 1.
  static void set_thread_engine_threads(std::int64_t threads);
  static std::int64_t thread_engine_threads();

  /// Engine worker i >= 1 of a threaded run (worker 0 is the calling
  /// thread) draws its resources from slot i-1 of a machine-owned
  /// registry, so the memoization stays race-free and arenas warm across
  /// runs.  Each run sizes the registry to its worker count, so
  /// re-running with fewer threads frees the extra slots.
  std::int64_t worker_resource_count() const {
    return static_cast<std::int64_t>(worker_resources_.size());
  }

 private:
  friend class Engine;

  struct Port {
    MemoryPipeline pipeline;
    BankMemory memory;
    BatchCostScratch cost_scratch;  ///< reusable tables for batch pricing
    bool dmm_pricing;  ///< true: bank-conflict cost; false: group cost

    Port(MemoryGeometry geom, const MemorySpec& spec, bool dmm)
        : pipeline(spec.latency), memory(geom, spec.size), dmm_pricing(dmm) {}
  };

  MachineConfig config_;
  Topology topology_;
  std::vector<Port> shared_;      // one per DMM when configured
  std::optional<Port> global_;
  EngineObserver* observer_ = nullptr;  // not owned
  // Frames and priced round patterns of runs on a thread that registered
  // no resources of its own.
  WorkerResources resources_;
  // Slot i serves engine worker i+1 (unique_ptr: a WorkerResources can
  // neither be copied nor moved).
  std::vector<std::unique_ptr<WorkerResources>> worker_resources_;
};

}  // namespace hmm
