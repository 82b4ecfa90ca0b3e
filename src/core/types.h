// Core identifiers shared by all SSJoin components.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "data/collection.h"

namespace ssjoin {

/// A signature value. Signature schemes reduce whatever structure they
/// project out of a set (partition projections, prefixes, minhash tuples)
/// to a fixed-width hash (paper Section 4.2); 64 bits keeps accidental
/// cross-structure collisions negligible at millions of sets.
using Signature = uint64_t;

/// One (signature, set id) occurrence. Sorted order groups equal
/// signatures and, within a group, ascends by id; the spill files store
/// postings in this layout (core/spill/spill_file.h).
using Posting = std::pair<Signature, SetId>;

/// One joined output pair (r from the left input, s from the right input;
/// for self-joins r < s).
using SetPair = std::pair<SetId, SetId>;

/// Packs a pair of set ids into one 64-bit key (for dedup hash sets).
constexpr uint64_t PackPair(SetId a, SetId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

constexpr SetPair UnpackPair(uint64_t packed) {
  return {static_cast<SetId>(packed >> 32),
          static_cast<SetId>(packed & 0xffffffffULL)};
}

}  // namespace ssjoin
