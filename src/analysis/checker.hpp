// AccessChecker — race, bounds and conflict-freedom analysis of simulated
// kernels; the simulator-world analogue of compute-sanitizer/racecheck.
//
// The paper's algorithms are certified *by construction* to be
// bank-conflict-free and fully coalesced (Lemma 1, Theorems 7-9); the
// checker turns that into a machine-verified claim about an actual run.
// Attach one to a Machine and every subsequent run is analysed for:
//
//  * RACES — conflicting accesses (>= one write) to the same address from
//    different warps with no intervening barrier release of the right
//    BarrierScope.  Happens-before is tracked with per-address
//    epoch/last-writer records: a kDmm release orders the warps of its
//    DMM, a kMachine release orders everything, and lanes of one warp are
//    always mutually ordered (the engine executes warps
//    warp-synchronously, so intra-warp rounds serialise by construction).
//  * BOUNDS — accesses outside the declared shapes (declare_region) and
//    reads of cells never written by a kernel nor declared initialized
//    (declare_initialized covers host-side Machine::load/poke staging).
//  * WARP WRITE-WRITE — two lanes of one dispatch writing the same
//    address.  The model resolves this deterministically (highest lane
//    wins) but real hardware says "arbitrary", so a clean kernel avoids
//    it.
//  * CONFLICT-FREEDOM — exact per-dispatch bank-conflict degree (DMM
//    pricing) and address-group count (UMM pricing) histograms, with
//    certify_conflict_free() / certify_coalesced() so tests can assert
//    the paper's Theta-bounds are met by a clean schedule, not by
//    accident.
//
// Determinism: the engine's event stream is a deterministic serialisation
// of the run (machine/observer.hpp), so the findings — order, content and
// count — are identical on every execution of the same kernel.
//
// Known approximation: per address the checker keeps the last write and
// the two most recent reads from distinct warps.  Three or more warps
// reading one cell before a racy write can therefore shadow the oldest
// read record; every seeded two-party race is caught exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "machine/observer.hpp"

namespace hmm::analysis {

/// Taxonomy of checker findings (docs/ANALYSIS.md).  Values are stable:
/// they define the CLI exit-code mapping of `hmmsim --check`.
enum class FindingKind : std::uint8_t {
  kRace,               ///< unsynchronised conflicting access, two warps
  kOutOfBounds,        ///< access outside every declared region
  kUninitializedRead,  ///< read of a never-written, undeclared cell
  kWarpWriteWrite,     ///< same-address write-write within one dispatch
};

const char* to_string(FindingKind kind);

/// One defect, attributed to the offending access (and, for races, the
/// prior conflicting access it collides with).
struct Finding {
  FindingKind kind = FindingKind::kRace;
  MemorySpace space = MemorySpace::kShared;
  DmmId dmm = -1;      ///< owning DMM for shared memory; -1 for global
  Address address = 0;
  Cycle when = 0;      ///< issue cycle of the offending dispatch
  ThreadId thread = -1;         ///< offending accessor
  WarpId warp = -1;
  AccessKind access = AccessKind::kRead;
  ThreadId other_thread = -1;   ///< prior conflicting accessor (races,
  WarpId other_warp = -1;       ///< warp write-write); -1 otherwise
  AccessKind other_access = AccessKind::kRead;

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// One-line human-readable rendering ("race: shared[dmm 0] addr 5 ...").
std::string to_string(const Finding& f);

/// Batches-per-degree histogram of one pricing domain.  Index k counts
/// dispatches whose batch cost k pipeline stages (bank-conflict degree
/// under DMM pricing, address-group count under UMM pricing); index 0 is
/// unused (a dispatched batch costs >= 1 stage).
struct ConflictHistogram {
  std::vector<std::int64_t> batches_by_degree;
  std::int64_t batches = 0;
  std::int64_t max_degree = 0;

  /// True iff every recorded dispatch cost at most `max_allowed` stages.
  bool all_within(std::int64_t max_allowed) const;
};

struct CheckerConfig {
  bool race = true;      ///< (a) shared/global data races
  bool bounds = true;    ///< (b) out-of-bounds + uninitialized reads
  bool conflict = true;  ///< (c)+(d) warp write-write, conflict histograms
  /// Findings beyond this many are counted (see count()) but not stored.
  std::int64_t max_findings = 64;
};

/// The checker is bound to one Machine's shape at construction (or, in
/// the deferred form, at its first run) and attaches via
/// `machine.set_observer(&checker)`.  It may observe any
/// number of runs; happens-before state carries across runs (a run
/// boundary is a machine-wide synchronisation point) and so does the
/// initialized-cell map (memory contents persist across runs too).
class AccessChecker final : public EngineObserver {
 public:
  explicit AccessChecker(const Machine& machine, CheckerConfig config = {});

  /// Deferred binding: adopt the shape of the first machine that begins a
  /// run while this checker is attached (and stay bound to it).  For
  /// harnesses observing machines constructed inside algorithm drivers —
  /// e.g. `hmmsim --check` and the static/dynamic differential runner.
  /// declare_initialized calls made before binding are kept and applied
  /// (and range-checked) when the checker binds; declare_region requires
  /// the bound form.
  explicit AccessChecker(CheckerConfig config = {});

  // ---- shape declarations (before the run) ----------------------------
  /// Declare [base, base+size) a legal region of `space`; the first
  /// declaration replaces the default "whole memory" shape.  Shared
  /// regions apply to every DMM's shared memory alike.
  void declare_region(MemorySpace space, Address base, std::int64_t size);

  /// Mark [base, base+size) of `space` as initialized (host-side load()/
  /// poke() staging is invisible to the observer).  `dmm` = -1 marks the
  /// region in every DMM's shared memory; ignored for kGlobal.
  void declare_initialized(MemorySpace space, Address base, std::int64_t size,
                           DmmId dmm = -1);

  // ---- results ---------------------------------------------------------
  /// Stored findings in detection order (capped at config.max_findings).
  const std::vector<Finding>& findings() const { return findings_; }
  /// Total detections of `kind`, including findings beyond the cap.
  std::int64_t count(FindingKind kind) const;
  std::int64_t total_count() const;
  bool clean() const { return total_count() == 0; }

  // ---- certification (d) ----------------------------------------------
  /// All dispatches priced under DMM (bank) rules, across every shared
  /// memory port.
  const ConflictHistogram& shared_histogram() const { return shared_hist_; }
  /// All dispatches priced under UMM (address-group) rules.
  const ConflictHistogram& global_histogram() const { return global_hist_; }

  /// Every DMM-priced dispatch had bank-conflict degree <= max_degree
  /// (degree 1 == the paper's "conflict-free").
  bool certify_conflict_free(std::int64_t max_degree = 1) const;
  /// Every UMM-priced dispatch touched <= max_groups address groups
  /// (1 == fully coalesced: one address-line broadcast per dispatch).
  bool certify_coalesced(std::int64_t max_groups = 1) const;

  /// Drop all findings, counters and histograms; keep shape declarations,
  /// the initialized-cell map and happens-before state.
  void reset_findings();

  // ---- EngineObserver --------------------------------------------------
  void on_run_begin(const Machine& machine) override;
  void on_memory_batch(const MemoryBatchEvent& event) override;
  void on_barrier_release(const BarrierReleaseEvent& event) override;

 private:
  /// Last-accessor record for one direction (write, or one read slot).
  struct AccessRecord {
    ThreadId thread = -1;
    WarpId warp = -1;
    DmmId dmm = -1;
    std::uint64_t dmm_epoch = 0;      // epoch of `dmm` at access time
    std::uint64_t machine_epoch = 0;  // machine epoch at access time
    bool valid() const { return thread >= 0; }
  };

  /// Per-address tracking state.  read0 is the most recent read; read1
  /// the most recent read from a warp other than read0's.
  struct CellState {
    AccessRecord write;
    AccessRecord read0;
    AccessRecord read1;
    bool initialized = false;
    bool uninit_reported = false;  // one uninitialized-read per cell
  };

  struct Region {
    Address base = 0;
    std::int64_t size = 0;
  };

  /// A declare_initialized call made before binding.
  struct PendingInit {
    MemorySpace space;
    Address base;
    std::int64_t size;
    DmmId dmm;
  };

  void bind(const Machine& machine);
  std::vector<CellState>& cells_for(MemorySpace space, DmmId dmm);
  bool in_declared_region(MemorySpace space, Address a) const;
  bool ordered_after(const AccessRecord& prior, DmmId accessor_dmm) const;
  void record(const Finding& f);
  void check_request(const MemoryBatchEvent& event, const Request& r);
  void commit_request(const MemoryBatchEvent& event, const Request& r);
  void bump_dmm_epochs();

  CheckerConfig config_;
  std::int64_t width_ = 0;
  std::int64_t num_dmms_ = 0;
  std::int64_t shared_size_ = 0;  // 0: machine has no shared memories
  std::int64_t global_size_ = 0;  // 0: machine has no global memory
  const Machine* machine_ = nullptr;  // identity check on run begin

  std::vector<std::vector<CellState>> shared_cells_;  // one table per DMM
  std::vector<CellState> global_cells_;
  std::vector<Region> shared_regions_;  // empty: whole memory is legal
  std::vector<Region> global_regions_;
  std::vector<PendingInit> pending_init_;  // applied by bind()

  std::vector<std::uint64_t> dmm_epoch_;
  std::uint64_t machine_epoch_ = 1;

  std::vector<Finding> findings_;
  std::vector<Address> race_flagged_;  // per-dispatch dedup scratch
  std::int64_t counts_[4] = {0, 0, 0, 0};
  ConflictHistogram shared_hist_;
  ConflictHistogram global_hist_;
};

}  // namespace hmm::analysis
