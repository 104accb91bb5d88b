// A fixed-capacity bitset over node indices with fast ordered scans.
//
// This is the storage primitive of the free-core index: one NodeSet per
// free-core bucket plus one for "any free core". Word-level scans with
// countr_zero give node-id-ascending iteration at ~64 nodes per step,
// which is what keeps bucket walks cheap even at 64k nodes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace dbs::cluster {

class NodeSet {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  NodeSet() = default;
  explicit NodeSet(std::size_t capacity) { reset(capacity); }

  /// Clears the set and resizes it to hold indices [0, capacity).
  void reset(std::size_t capacity) {
    capacity_ = capacity;
    words_.assign((capacity + 63) / 64, 0);
    count_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const {
    DBS_ASSERT(i < capacity_, "node index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void insert(std::size_t i) {
    DBS_ASSERT(i < capacity_, "node index out of range");
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    DBS_ASSERT((w & bit) == 0, "node already in set");
    w |= bit;
    ++count_;
  }

  void erase(std::size_t i) {
    DBS_ASSERT(i < capacity_, "node index out of range");
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    DBS_ASSERT((w & bit) != 0, "node not in set");
    w &= ~bit;
    --count_;
  }

  /// Lowest member index >= `from`, or npos. O(words) worst case; the
  /// count() == 0 fast path makes skipping empty buckets O(1).
  [[nodiscard]] std::size_t find_from(std::size_t from) const {
    if (count_ == 0 || from >= capacity_) return npos;
    std::size_t w = from >> 6;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from & 63));
    while (true) {
      if (word != 0)
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      if (++w == words_.size()) return npos;
      word = words_[w];
    }
  }

  [[nodiscard]] std::size_t first() const { return find_from(0); }

  /// Members counted from the words themselves, O(capacity / 64). Unlike
  /// count(), which insert/erase maintain, this cannot drift from the bits;
  /// the cluster's invariant check relies on that.
  [[nodiscard]] std::size_t popcount() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_)
      n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
};

}  // namespace dbs::cluster
