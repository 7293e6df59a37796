// Deterministic pseudo-random number generation for workload generators
// and property tests.
//
// We carry our own splitmix64 generator rather than std::mt19937 so that
// every workload is reproducible byte-for-byte across standard libraries
// and platforms — benchmark rows must be regenerable.
#pragma once

#include <cstdint>

#include "core/error.hpp"

namespace hmm {

/// splitmix64 (Steele, Lea & Flood): tiny, fast, passes BigCrush when used
/// as a 64-bit stream, and trivially seedable.
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed) : state_(seed) {}

  /// Next 64 uniform random bits.
  constexpr std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound), bound >= 1.  Uses rejection sampling,
  /// so the distribution is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound) {
    HMM_REQUIRE(bound >= 1, "next_below: bound must be >= 1");
    const std::uint64_t limit = ~std::uint64_t{0} - ~std::uint64_t{0} % bound;
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return v % bound;
  }

  /// Uniform integer in [lo, hi] (inclusive), lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    HMM_REQUIRE(lo <= hi, "next_in: lo must be <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next_u64()
                                                    : next_below(span));
  }

  /// Derive an independent child stream (for per-thread / per-trial seeds).
  Rng split() { return Rng(next_u64() ^ 0xA5A5A5A5A5A5A5A5ULL); }

 private:
  std::uint64_t state_;
};

}  // namespace hmm
