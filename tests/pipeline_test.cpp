// Unit tests for the l-stage memory pipeline (§II/§III, Fig. 4) and the
// banked storage behind it.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "mm/bank_memory.hpp"
#include "mm/batch_cost.hpp"
#include "mm/pipeline.hpp"

namespace hmm {
namespace {

TEST(Pipeline, SingleBatchTiming) {
  MemoryPipeline pipe(/*latency=*/5);
  const auto slot = pipe.inject(/*ready=*/0, /*stages=*/1, /*requests=*/4);
  EXPECT_EQ(slot.inject_begin, 0);
  EXPECT_EQ(slot.inject_end, 0);
  EXPECT_EQ(slot.data_ready, 5);  // duration = k + l - 1 = 5
}

TEST(Pipeline, Fig4TwoWarpExample) {
  // Fig. 4: l = 5, W(0) occupies 3 stages, W(4) occupies 1; total
  // completion 3 + 1 + 5 - 1 = 8.
  MemoryPipeline pipe(5);
  const auto w0 = pipe.inject(0, 3, 4);
  const auto w4 = pipe.inject(0, 1, 4);
  EXPECT_EQ(w0.inject_begin, 0);
  EXPECT_EQ(w0.inject_end, 2);
  EXPECT_EQ(w0.data_ready, 7);
  EXPECT_EQ(w4.inject_begin, 3);  // back-to-back behind W(0)
  EXPECT_EQ(w4.data_ready, 8);
}

TEST(Pipeline, BatchesQueueBackToBack) {
  MemoryPipeline pipe(10);
  Cycle last_ready = 0;
  for (int i = 0; i < 8; ++i) {
    const auto slot = pipe.inject(0, 1, 1);
    EXPECT_EQ(slot.inject_begin, i);
    last_ready = slot.data_ready;
  }
  // 8 stages + latency 10 - 1 = 17.
  EXPECT_EQ(last_ready, 17);
  EXPECT_EQ(pipe.stats().batches, 8);
  EXPECT_EQ(pipe.stats().stages, 8);
  EXPECT_EQ(pipe.stats().idle_cycles, 0);
}

TEST(Pipeline, GapsAreAccountedAsIdle) {
  MemoryPipeline pipe(2);
  (void)pipe.inject(0, 1, 1);
  const auto slot = pipe.inject(10, 1, 1);
  EXPECT_EQ(slot.inject_begin, 10);
  EXPECT_EQ(pipe.stats().idle_cycles, 9);
}

TEST(Pipeline, RejectsNonsense) {
  MemoryPipeline pipe(1);
  EXPECT_THROW(pipe.inject(-1, 1, 1), PreconditionError);
  EXPECT_THROW(pipe.inject(0, 0, 1), PreconditionError);
  EXPECT_THROW(pipe.inject(0, 1, 0), PreconditionError);
  EXPECT_THROW(MemoryPipeline(0), PreconditionError);
}

TEST(Pipeline, ResetClearsHistory) {
  MemoryPipeline pipe(3);
  (void)pipe.inject(0, 4, 4);
  pipe.reset();
  EXPECT_EQ(pipe.stats().batches, 0);
  EXPECT_EQ(pipe.next_free(), 0);
}

// ---- BankMemory -----------------------------------------------------------

WarpBatch make_batch(std::initializer_list<Request> rs) { return {rs}; }

/// Service `batch` the way the engine does (with its own profile's
/// distinct-address count) and return the per-request values.
std::vector<Word> serve(BankMemory& mem, const WarpBatch& batch) {
  std::vector<Word> values(batch.size());
  mem.service(batch, values,
              profile_batch(mem.geometry(), batch).distinct_addresses);
  return values;
}

TEST(BankMemory, BroadcastReadReturnsOneValueToAll) {
  BankMemory mem(MemoryGeometry(4), 16);
  mem.poke(6, 42);
  const auto out = serve(mem, make_batch({
      {.lane = 0, .kind = AccessKind::kRead, .address = 6, .value = 0},
      {.lane = 1, .kind = AccessKind::kRead, .address = 6, .value = 0},
      {.lane = 2, .kind = AccessKind::kRead, .address = 6, .value = 0},
  }));
  EXPECT_EQ(out, (std::vector<Word>{42, 42, 42}));
}

TEST(BankMemory, ConflictingWritesHaveDeterministicWinner) {
  BankMemory mem(MemoryGeometry(4), 16);
  (void)serve(mem, make_batch({
      {.lane = 0, .kind = AccessKind::kWrite, .address = 3, .value = 10},
      {.lane = 2, .kind = AccessKind::kWrite, .address = 3, .value = 30},
      {.lane = 1, .kind = AccessKind::kWrite, .address = 3, .value = 20},
  }));
  EXPECT_EQ(mem.peek(3), 30);  // highest lane wins, replayable
}

TEST(BankMemory, ReadsObservePreBatchState) {
  BankMemory mem(MemoryGeometry(4), 16);
  mem.poke(2, 7);
  const auto out = serve(mem, make_batch({
      {.lane = 0, .kind = AccessKind::kWrite, .address = 2, .value = 99},
      {.lane = 1, .kind = AccessKind::kRead, .address = 2, .value = 0},
  }));
  EXPECT_EQ(out[1], 7);  // the read sees the pre-batch value
  EXPECT_EQ(mem.peek(2), 99);
}

TEST(BankMemory, TrafficCountsDistinctAddressesPerBank) {
  BankMemory mem(MemoryGeometry(4), 16);
  (void)serve(mem, make_batch({
      {.lane = 0, .kind = AccessKind::kRead, .address = 0, .value = 0},
      {.lane = 1, .kind = AccessKind::kRead, .address = 0, .value = 0},
      {.lane = 2, .kind = AccessKind::kRead, .address = 4, .value = 0},
      {.lane = 3, .kind = AccessKind::kRead, .address = 5, .value = 0},
  }));
  EXPECT_EQ(mem.bank_traffic(), (std::vector<std::int64_t>{2, 1, 0, 0}));
  mem.reset_traffic();
  EXPECT_EQ(mem.bank_traffic(), (std::vector<std::int64_t>{0, 0, 0, 0}));
}

TEST(BankMemory, BoundsAreEnforced) {
  BankMemory mem(MemoryGeometry(4), 8);
  EXPECT_THROW(mem.peek(8), PreconditionError);
  EXPECT_THROW(mem.poke(-1, 0), PreconditionError);
  EXPECT_THROW((void)serve(mem, make_batch({{.lane = 0,
                                             .kind = AccessKind::kRead,
                                             .address = 8,
                                             .value = 0}})),
               PreconditionError);
  EXPECT_THROW(mem.dump(4, 5), PreconditionError);
}

TEST(BankMemory, MalformedBatchChangesNothing) {
  BankMemory mem(MemoryGeometry(4), 16);
  const WarpBatch batch = make_batch({
      {.lane = 0, .kind = AccessKind::kWrite, .address = 3, .value = 10},
      {.lane = 1, .kind = AccessKind::kWrite, .address = 16, .value = 20},
  });
  std::vector<Word> values(1);
  EXPECT_THROW(mem.service(batch, values, 2), PreconditionError);
  values.resize(2);
  EXPECT_THROW(mem.service(batch, values, 2), PreconditionError);
  EXPECT_EQ(mem.peek(3), 0);
  EXPECT_EQ(mem.bank_traffic(), (std::vector<std::int64_t>{0, 0, 0, 0}));
}

TEST(BankMemory, LoadAndDumpRoundTrip) {
  BankMemory mem(MemoryGeometry(4), 8);
  const std::vector<Word> data{1, 2, 3};
  mem.load(2, data);
  EXPECT_EQ(mem.dump(2, 3), data);
  EXPECT_EQ(mem.peek(0), 0);
}

// ---- BankMemory::service against the seed algorithm ----------------------

/// The seed's service algorithm, the executable specification of the
/// same-address rule: reads see pre-batch memory, a write lands unless a
/// higher lane writes the same address (pairwise scan), and traffic is
/// one unit per distinct address after sort + unique.
struct SeedMemory {
  std::int64_t width;
  std::vector<Word> cells;
  std::vector<std::int64_t> traffic;

  std::vector<Word> service(std::span<const Request> batch) {
    std::vector<Word> values(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind == AccessKind::kRead) {
        values[i] = cells[static_cast<std::size_t>(batch[i].address)];
      }
    }
    for (const Request& r : batch) {
      if (r.kind != AccessKind::kWrite) continue;
      bool superseded = false;
      for (const Request& other : batch) {
        superseded |= other.kind == AccessKind::kWrite &&
                      other.address == r.address && other.lane > r.lane;
      }
      if (!superseded) cells[static_cast<std::size_t>(r.address)] = r.value;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind == AccessKind::kWrite) {
        values[i] = cells[static_cast<std::size_t>(batch[i].address)];
      }
    }
    std::vector<Address> addrs;
    for (const Request& r : batch) addrs.push_back(r.address);
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    for (const Address a : addrs) ++traffic[static_cast<std::size_t>(a % width)];
    return values;
  }
};

/// A random batch of up to `width` requests from distinct lanes in
/// arbitrary order.  Addresses come from one of three shapes: distinct
/// cells anywhere in memory, a small pool (duplicates, conflicting
/// writes, a read and a write of one cell), or a single cell (broadcast).
WarpBatch random_batch(Rng& rng, std::int64_t width, std::int64_t size) {
  std::vector<std::int64_t> lanes(static_cast<std::size_t>(width));
  std::iota(lanes.begin(), lanes.end(), 0);
  for (std::size_t i = lanes.size(); i > 1; --i) {
    std::swap(lanes[i - 1], lanes[rng.next_below(i)]);
  }
  const auto n = static_cast<std::size_t>(rng.next_in(1, width));
  const std::int64_t shape = rng.next_in(0, 2);
  const std::int64_t pool = rng.next_in(1, std::max<std::int64_t>(1, width / 3));
  const Address base = rng.next_in(0, size - width);
  const std::int64_t kinds = rng.next_in(0, 2);  // reads, writes, mixed
  WarpBatch batch;
  std::vector<Address> used;
  for (std::size_t i = 0; i < n; ++i) {
    Address a = base;
    if (shape == 0) {
      do {
        a = rng.next_in(0, size - 1);
      } while (std::find(used.begin(), used.end(), a) != used.end());
      used.push_back(a);
    } else if (shape == 1) {
      a = base + rng.next_in(0, pool - 1);
    }
    const bool write = kinds == 1 || (kinds == 2 && rng.next_in(0, 1) == 1);
    batch.push_back(Request{
        .lane = lanes[i],
        .kind = write ? AccessKind::kWrite : AccessKind::kRead,
        .address = a,
        .value = rng.next_in(1, 1000000),
    });
  }
  return batch;
}

TEST(BankMemoryProperty, ServiceMatchesSeedAlgorithmOnRandomBatches) {
  std::int64_t duplicate_batches = 0, broadcast_reads = 0;
  std::int64_t conflicting_writes = 0, read_write_pairs = 0;
  for (const std::int64_t width : {1, 4, 12, 32}) {
    Rng rng(static_cast<std::uint64_t>(width) * 7919);
    const std::int64_t size = 4 * width + 3;
    BankMemory mem(MemoryGeometry(width), size);
    SeedMemory seed{width, std::vector<Word>(static_cast<std::size_t>(size)),
                    std::vector<std::int64_t>(static_cast<std::size_t>(width))};
    for (Address a = 0; a < size; ++a) {
      mem.poke(a, a);
      seed.cells[static_cast<std::size_t>(a)] = a;
    }
    for (int round = 0; round < 2000; ++round) {
      const WarpBatch batch = random_batch(rng, width, size);
      const BatchProfile profile = profile_batch(mem.geometry(), batch);
      if (profile.distinct_addresses < static_cast<std::int64_t>(batch.size())) {
        ++duplicate_batches;
      }
      for (const Request& r : batch) {
        for (const Request& o : batch) {
          if (o.address != r.address || o.lane <= r.lane) continue;
          broadcast_reads += r.kind == AccessKind::kRead &&
                             o.kind == AccessKind::kRead;
          conflicting_writes += r.kind == AccessKind::kWrite &&
                                o.kind == AccessKind::kWrite;
          read_write_pairs += r.kind != o.kind;
        }
      }

      const std::vector<Word> expected = seed.service(batch);
      std::vector<Word> values(batch.size());
      mem.service(batch, values, profile.distinct_addresses);
      ASSERT_EQ(values, expected) << "width=" << width << " round=" << round;
      ASSERT_EQ(mem.dump(0, size), seed.cells)
          << "width=" << width << " round=" << round;
      ASSERT_EQ(mem.bank_traffic(), seed.traffic)
          << "width=" << width << " round=" << round;
    }
  }
  // The generator really exercised every same-address case.
  EXPECT_GT(duplicate_batches, 100);
  EXPECT_GT(broadcast_reads, 100);
  EXPECT_GT(conflicting_writes, 100);
  EXPECT_GT(read_write_pairs, 100);
}

}  // namespace
}  // namespace hmm
