// Flat open-addressing u64 set for candidate dedup (DESIGN.md §11).
//
// Candidate generation produces packed (r, s) pairs with duplicates
// (one per shared signature). The drivers used to dedup by sort+unique
// over the full occurrence list — O(n log n) comparisons on a vector
// that is mostly duplicates for selective schemes. FlatU64Set replaces
// that with a linear-probing power-of-two table in the sigmod18contest
// MultiArrayTable / flat-hash-table shape: one Mix64 probe per
// occurrence, no per-node allocation, contiguous memory.
//
// Determinism: the table's iteration order is insertion/probe dependent,
// so it is never exposed — ExtractSorted() moves the distinct keys out
// and sorts them, producing exactly the vector sort+unique produced.
// (The `deterministic-iteration` lint rule polices unordered
// containers reaching export sinks; this class only ever escapes through
// the sorted extraction.)
//
// Sizing: callers reserve from their duplicate estimate — the drivers
// pre-scan their posting groups for the exact insertion count (see
// CandidateDedup in core/driver_internal.cc, which also falls back to
// sort+unique for shards whose table would outgrow cache) — and the
// table grows by doubling past a 0.7 load factor regardless, so a bad
// estimate costs rehashes, not correctness.
//
// Not thread-safe; each shard owns one instance.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/hashing.h"

namespace ssjoin::kernels {

class FlatU64Set {
 public:
  /// Sentinel for an empty slot. PackPair(a, b) with a < b (self-join)
  /// or any (r, s) candidate never produces all-ones (that would need
  /// set id 0xffffffff on both sides), so the sentinel is safe for the
  /// dedup workload. Nothing checks it: an inserted kEmpty is lost (its
  /// slot still reads as empty) while size() counts it.
  static constexpr uint64_t kEmpty = ~0ULL;

  FlatU64Set() = default;

  /// Reserves capacity for about `expected` distinct keys.
  explicit FlatU64Set(size_t expected) { Reserve(expected); }

  void Reserve(size_t expected) {
    size_t needed = std::bit_ceil(
        std::max<size_t>(16, expected + expected / 2 + 1));
    if (needed > slots_.size()) Rehash(needed);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  /// Inserts `key`; returns true when it was not present. `key` must not
  /// be the kEmpty sentinel.
  bool Insert(uint64_t key) {
    if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) {
      Rehash(std::max<size_t>(16, slots_.size() * 2));
    }
    size_t mask = slots_.size() - 1;
    size_t slot = static_cast<size_t>(Mix64(key)) & mask;
    while (slots_[slot] != kEmpty) {
      if (slots_[slot] == key) return false;
      slot = (slot + 1) & mask;
    }
    slots_[slot] = key;
    ++size_;
    return true;
  }

  bool Contains(uint64_t key) const {
    if (slots_.empty()) return false;
    size_t mask = slots_.size() - 1;
    size_t slot = static_cast<size_t>(Mix64(key)) & mask;
    while (slots_[slot] != kEmpty) {
      if (slots_[slot] == key) return true;
      slot = (slot + 1) & mask;
    }
    return false;
  }

  /// Moves the distinct keys out as a sorted vector and clears the set.
  /// Byte-identical to sort+unique over the inserted sequence.
  std::vector<uint64_t> ExtractSorted() {
    std::vector<uint64_t> out;
    out.reserve(size_);
    for (uint64_t slot : slots_) {
      if (slot != kEmpty) out.push_back(slot);
    }
    std::sort(out.begin(), out.end());
    slots_.clear();
    size_ = 0;
    return out;
  }

 private:
  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(new_capacity, kEmpty);
    size_t mask = new_capacity - 1;
    for (uint64_t key : old) {
      if (key == kEmpty) continue;
      size_t slot = static_cast<size_t>(Mix64(key)) & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = key;
    }
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

}  // namespace ssjoin::kernels
