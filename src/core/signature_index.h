// SignatureIndex: the incremental inverted index over signatures.
//
// Both incremental consumers of Figure 2's signature step — the
// pipelined self-join scan (core/pipeline/pipelined_scan_operator.h) and
// proximity search (core/similarity_index.h) — post each set under its
// signatures once and probe the index with another set's signatures.
// This is the one index they share, so the probe semantics (collision
// counting, partner dedup and order) are defined in one place.

#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace ssjoin {

class SignatureIndex {
 public:
  /// Posts `id` under every signature in `sigs` (sorted and distinct, as
  /// detail::GenerateSorted leaves them).
  void Add(std::span<const Signature> sigs, SetId id);

  /// Replaces *partners with the ids posted under any of `sigs`,
  /// ascending and distinct, and returns the collision count: the
  /// number of (signature, posted id) matches before dedup. `sigs` must
  /// be distinct. Const, so concurrent probes of a settled index are
  /// safe; a probe racing an Add is not.
  uint64_t Probe(std::span<const Signature> sigs,
                 std::vector<SetId>* partners) const;

 private:
  std::unordered_map<Signature, std::vector<SetId>> postings_;
};

}  // namespace ssjoin
