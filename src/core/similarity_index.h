// Proximity search over signature schemes.
//
// The paper closes (Section 9) noting it had "not yet explored if our
// signature schemes would be applicable to proximity search" — retrieving
// from an indexed collection all sets similar to a lookup set. They are:
// the Figure-2 correctness requirement (similar pairs share a signature)
// is symmetric between indexed sets and probes, so an inverted index over
// signatures answers threshold lookups exactly. This module implements
// that future-work extension: incremental inserts, exact lookups, and
// the same candidate-verification discipline as the join drivers.
//
// Usage:
//   SimilarityIndex index(scheme, predicate);
//   for (...) index.Insert(set);
//   std::vector<SetId> hits = index.Lookup(probe);   // ids of inserts

#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/predicate.h"
#include "core/signature_scheme.h"
#include "core/types.h"
#include "data/collection.h"
#include "util/check.h"

namespace ssjoin {

/// Statistics of lookups served so far (filtering-effectiveness view).
struct IndexStats {
  uint64_t inserted = 0;
  uint64_t lookups = 0;
  uint64_t candidates = 0;  // deduplicated, across all lookups
  uint64_t results = 0;
};

/// \brief Exact threshold-based similarity search.
///
/// The scheme and predicate must agree (the scheme complete for the
/// predicate), exactly as in the join drivers; then Lookup returns
/// *precisely* the inserted sets satisfying pred(indexed, probe) — no
/// misses, no false hits. With an LSH scheme the index inherits LSH's
/// probabilistic recall.
class SimilarityIndex {
 public:
  /// Both arguments are shared with the caller and must outlive the
  /// index's use.
  SimilarityIndex(SignatureSchemePtr scheme,
                  std::shared_ptr<const Predicate> predicate);

  /// Copies `set` (sorted, duplicate-free — e.g. a SetCollection member)
  /// into the index; returns its id (0-based insertion order).
  SetId Insert(std::span<const ElementId> set);

  /// Bulk-inserts a whole collection (ids follow collection order,
  /// offset by the current size).
  void InsertAll(const SetCollection& collection);

  /// All indexed ids whose set satisfies pred(indexed, probe), ascending.
  /// Const, but updates the mutable stats_ counters: concurrent lookups
  /// are not safe.
  std::vector<SetId> Lookup(std::span<const ElementId> probe) const;

  /// Lookup returning only the best ids is intentionally absent: the
  /// paper's predicate class is threshold-based, not top-k.

  size_t size() const { return stored_.size(); }
  const IndexStats& stats() const { return stats_; }

  /// The stored set for an id returned by Lookup; `id < size()`.
  std::span<const ElementId> set(SetId id) const {
    SSJOIN_CHECK(id < size(), "SimilarityIndex::set({}) of {} sets", id,
                 size());
    return std::span<const ElementId>(
        stored_elements_.data() + stored_[id].offset, stored_[id].size);
  }

 private:
  struct Entry {
    size_t offset;
    uint32_t size;
  };

  // Posts `id` under every signature in `sigs` (sorted and distinct).
  void Add(std::span<const Signature> sigs, SetId id);
  // Replaces *partners with the ids posted under any of `sigs`,
  // ascending and distinct.
  void Probe(std::span<const Signature> sigs,
             std::vector<SetId>* partners) const;

  SignatureSchemePtr scheme_;
  std::shared_ptr<const Predicate> predicate_;
  std::vector<Entry> stored_;
  std::vector<ElementId> stored_elements_;  // CSR payload
  // The inverted index over signatures.
  std::unordered_map<Signature, std::vector<SetId>> postings_;
  mutable IndexStats stats_;
};

}  // namespace ssjoin
