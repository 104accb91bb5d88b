// Deterministic pseudo-random number generation. The simulator never uses
// std::random_device or global state: every randomized component takes an
// explicit seeded Rng so runs are exactly reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace dbs {

/// One splitmix64 step: advances `state` and returns the next output.
/// Exposed standalone because the SWF generator and overlay also use it.
constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — small, fast, high-quality; seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : s_) word = splitmix64_next(x);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound), bound > 0. Uses rejection to avoid bias.
  std::uint64_t next_below(std::uint64_t bound) {
    DBS_REQUIRE(bound > 0, "bound must be positive");
    const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) {
    DBS_REQUIRE(lo <= hi, "empty range");
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Fisher–Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// The full generator state, for durable snapshots: a restored Rng
  /// continues the exact stream the saved one would have produced.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    DBS_REQUIRE(s[0] != 0 || s[1] != 0 || s[2] != 0 || s[3] != 0,
                "the all-zero state is a fixed point of xoshiro256**");
    for (std::size_t i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace dbs
