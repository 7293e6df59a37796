// Word-addressed banked storage behind a DMM or UMM pipeline.
//
// Functionally the memory is a flat array of words; the banked structure
// only matters for timing (batch_cost) and for the per-bank traffic
// statistics this class keeps, which the bank-conflict explorer example
// and the ablation benches report.
//
// Same-address semantics within one serviced batch (§II), as service()
// applies them:
//  * reads of one address by several threads are a broadcast — all get
//    the same value at no extra cost;
//  * every read observes the pre-batch state, even when another request
//    of the batch writes the same address;
//  * writes to one address by several threads: one arbitrary thread wins.
//    We deterministically pick the highest lane, whatever the order of
//    the requests in the batch, so simulations replay identically;
//  * traffic is one unit per distinct address, charged to its bank.
//
// A batch without duplicate addresses (the common case, proven by its
// BatchProfile) is serviced in one pass in batch order.  A batch with
// duplicates resolves them through a small table sized by the batch, so
// by the warp width, never by the memory size.  Neither allocates once
// the table has grown to the widest batch.
#pragma once

#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"
#include "mm/geometry.hpp"
#include "mm/request.hpp"

namespace hmm {

class BankMemory {
 public:
  BankMemory(MemoryGeometry geometry, std::int64_t size);

  const MemoryGeometry& geometry() const { return geometry_; }
  std::int64_t size() const { return static_cast<std::int64_t>(cells_.size()); }

  /// Direct (zero-cost) access for loading inputs and reading outputs of
  /// a simulation; never use inside a timed kernel.
  Word peek(Address a) const;
  void poke(Address a, Word v);

  /// Bulk load starting at address `base`.
  void load(Address base, std::span<const Word> words);

  /// Bulk read of `count` words starting at `base`.
  std::vector<Word> dump(Address base, std::int64_t count) const;

  /// Apply one warp batch with the semantics above and accumulate the
  /// per-bank traffic.  `values[i]` receives, for request i, the value
  /// read, or for a write the value that ended up stored.
  /// `distinct_addresses` must be the batch's
  /// BatchProfile::distinct_addresses (profile_batch): when it equals the
  /// batch size, the duplicate-free single pass runs.  Every address is
  /// checked before anything is written.
  void service(std::span<const Request> batch, std::span<Word> values,
               std::int64_t distinct_addresses);

  /// Distinct-address accesses observed so far, per bank.
  const std::vector<std::int64_t>& bank_traffic() const {
    return bank_traffic_;
  }

  void reset_traffic();

  // Lean accessors for the engine's verified replay path.  They bypass
  // service() but must reproduce its effects exactly; the replay path
  // only uses them for batches it has proven are duplicate-free (or
  // all-read), where per-request service order is irrelevant — the same
  // invariant service()'s single pass relies on.  Addresses must be
  // pre-validated against size().
  Word replay_read(Address a) const {
    return cells_[static_cast<std::size_t>(a)];
  }
  void replay_write(Address a, Word v) {
    cells_[static_cast<std::size_t>(a)] = v;
  }
  /// One distinct-address access on bank `b` (same unit service() counts).
  void add_bank_traffic(BankId b, std::int64_t count) {
    bank_traffic_[static_cast<std::size_t>(b)] += count;
  }

 private:
  /// One distinct address of a batch with duplicates.
  struct Slot {
    std::uint64_t epoch = 0;  ///< live iff equal to epoch_
    Address address = 0;
    ThreadId lane = -1;       ///< highest lane writing it, or -1
    Word value = 0;           ///< that lane's value
  };
  /// The live slot holding `a`, or the stale slot where `a` belongs.
  Slot& slot_for(Address a);

  MemoryGeometry geometry_;
  std::vector<Word> cells_;
  std::vector<std::int64_t> bank_traffic_;
  // Open-addressing table for batches with duplicates: a power of two,
  // at least twice the widest such batch, cleared by bumping epoch_.
  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 0;
};

}  // namespace hmm
