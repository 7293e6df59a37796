#include "mm/bank_memory.hpp"

#include <algorithm>
#include <bit>

#include "core/mathutil.hpp"

namespace hmm {

BankMemory::BankMemory(MemoryGeometry geometry, std::int64_t size)
    : geometry_(geometry),
      cells_(checked_size(size, "bank memory"), Word{0}),
      bank_traffic_(static_cast<std::size_t>(geometry.width()), 0) {}

Word BankMemory::peek(Address a) const {
  HMM_REQUIRE(a >= 0 && a < size(), "peek: address out of range");
  return cells_[static_cast<std::size_t>(a)];
}

void BankMemory::poke(Address a, Word v) {
  HMM_REQUIRE(a >= 0 && a < size(), "poke: address out of range");
  cells_[static_cast<std::size_t>(a)] = v;
}

void BankMemory::load(Address base, std::span<const Word> words) {
  HMM_REQUIRE(base >= 0 &&
                  base + static_cast<std::int64_t>(words.size()) <= size(),
              "load: range out of bounds");
  std::copy(words.begin(), words.end(),
            cells_.begin() + static_cast<std::ptrdiff_t>(base));
}

std::vector<Word> BankMemory::dump(Address base, std::int64_t count) const {
  HMM_REQUIRE(base >= 0 && count >= 0 && base + count <= size(),
              "dump: range out of bounds");
  return {cells_.begin() + static_cast<std::ptrdiff_t>(base),
          cells_.begin() + static_cast<std::ptrdiff_t>(base + count)};
}

void BankMemory::service(std::span<const Request> batch,
                         std::span<Word> values,
                         std::int64_t distinct_addresses) {
  HMM_REQUIRE(values.size() == batch.size(),
              "service: values must be parallel to the batch");
  for (const Request& r : batch) {
    HMM_REQUIRE(r.address >= 0 && r.address < size(),
                "service: address out of range");
  }
  if (distinct_addresses == static_cast<std::int64_t>(batch.size())) {
    // Duplicate-free: no request can observe another, so batch order is
    // service order.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Request& r = batch[i];
      Word& cell = cells_[static_cast<std::size_t>(r.address)];
      if (r.kind == AccessKind::kWrite) cell = r.value;
      values[i] = cell;
      ++bank_traffic_[static_cast<std::size_t>(geometry_.bank_of(r.address))];
    }
    return;
  }

  if (slots_.size() < 2 * batch.size()) {
    slots_.resize(std::bit_ceil(2 * batch.size()));
  }
  ++epoch_;
  // Pass 1, before any write: reads take the pre-batch value, each
  // distinct address gets a slot and one unit of traffic, and each slot
  // keeps its highest-lane write (the deterministic stand-in for the
  // paper's "one of them is arbitrarily selected").
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    Slot& s = slot_for(r.address);
    if (s.epoch != epoch_) {
      s = Slot{.epoch = epoch_, .address = r.address};
      ++bank_traffic_[static_cast<std::size_t>(geometry_.bank_of(r.address))];
    }
    if (r.kind == AccessKind::kRead) {
      values[i] = cells_[static_cast<std::size_t>(r.address)];
    } else if (r.lane >= s.lane) {
      s.lane = r.lane;
      s.value = r.value;
    }
  }
  // Pass 2: every write stores, and reports, its address's winning value.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].kind != AccessKind::kWrite) continue;
    values[i] = slot_for(batch[i].address).value;
    cells_[static_cast<std::size_t>(batch[i].address)] = values[i];
  }
}

BankMemory::Slot& BankMemory::slot_for(Address a) {
  // Fibonacci hashing: the high bits of the product spread strided
  // addresses over the table.
  const std::uint64_t mask = slots_.size() - 1;
  std::uint64_t h =
      (static_cast<std::uint64_t>(a) * 0x9E3779B97F4A7C15ULL) >>
      std::countl_zero(mask);
  while (slots_[h].epoch == epoch_ && slots_[h].address != a) {
    h = (h + 1) & mask;
  }
  return slots_[h];
}

void BankMemory::reset_traffic() {
  std::fill(bank_traffic_.begin(), bank_traffic_.end(), 0);
}

}  // namespace hmm
