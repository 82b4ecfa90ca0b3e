// Internal building blocks of the Figure-2 operators, shared between the
// in-memory sources (core/pipeline) and the out-of-core spill attempt
// (core/spill/spill_join.cc).
//
// The spill layer reuses them verbatim, so a spilled join is the same
// candidate generation and the same verification code operating on
// partition-sized slices — which is what makes the byte-identity
// contract (DESIGN.md Section 12) a structural property instead of a
// test hope.
//
// This header is internal: nothing in it is API, and its contracts (in
// particular the determinism notes on each function) are those of
// DESIGN.md Sections 6-7.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/execution_guard.h"
#include "core/kernels/bitmap_filter.h"
#include "core/predicate.h"
#include "core/signature_scheme.h"
#include "core/types.h"
#include "data/collection.h"
#include "obs/join_telemetry.h"
#include "util/thread_pool.h"

namespace ssjoin::detail {

// Wraps guard->ShouldStop(phase) for the interruptible ParallelFor
// overload. Empty when no guard is attached, which selects the plain
// (single-invocation-per-chunk) ParallelFor — unguarded runs execute the
// exact pre-guard code path.
std::function<bool()> StopFn(ExecutionGuard* guard, JoinPhase phase);

// Replaces *scratch with the deduplicated, sorted Sign(set).
void GenerateSorted(const SignatureScheme& scheme,
                    std::span<const ElementId> set,
                    std::vector<Signature>* scratch);

// Sets per signature-generation chunk, the unit of SigGen's auto-spill
// check and of the spill write stage's checkpoints and disk charges;
// fixed, so chunk boundaries never depend on the thread count.
inline constexpr size_t kSigGenChunkSets = 8192;

// The one signature-generation loop: (*sigs)[i] = the GenerateSorted
// Sign(set begin + i) for one chunk [begin, end), fanned out over the
// pool while polling the guard (kSigGen); after a trip the chunk is
// partial. *sigs only grows, so its vectors are reused chunk to chunk.
void GenerateChunk(const SetCollection& input, const SignatureScheme& scheme,
                   size_t begin, size_t end, ThreadPool& pool,
                   ExecutionGuard* guard,
                   std::vector<std::vector<Signature>>* sigs);

// The settled signature index of one join (DESIGN.md Section 6.1):
// the (sig, id) postings grouped by signature, restricted to the groups
// that can yield a pair, plus each probe set's partner ranges into
// them. A self-join probe set r ranges over the ids above r in each of
// its groups, so every pair is generated from its smaller id; a binary
// join indexes S and gives each R set the whole S group of every shared
// signature.
struct ProbeIndex {
  // Indexed ids, group by group, ascending within a group.
  std::vector<SetId> ids;
  // Probe set r's partner ranges are ranges[offsets[r], offsets[r + 1]),
  // each a half-open [begin, end) into ids.
  std::vector<size_t> offsets;
  std::vector<std::pair<size_t, size_t>> ranges;
  // Size of the indexed collection (the dedup stamp array's length).
  size_t indexed_sets = 0;

  size_t size_bytes() const {
    return ids.size() * sizeof(SetId) + offsets.size() * sizeof(size_t) +
           ranges.size() * sizeof(ranges[0]);
  }
};

// Builds the index from unsorted postings: the self-join index over
// `postings_r` when `postings_s` is null, else S indexed and probed by
// R. Groups the postings by signature on the pool, consuming
// (reordering) the posting vectors. The index is the same at every
// thread count.
ProbeIndex BuildProbeIndex(std::vector<Posting>* postings_r, size_t sets_r,
                           std::vector<Posting>* postings_s, size_t sets_s,
                           ThreadPool& pool);

// Candidate generation's output. Candidates are the distinct pairs that
// share a signature, in (r, s) order; `ends` places them without
// materializing them, and only the pairs the caller keeps are stored.
struct ProbedCandidates {
  // Total (signature, partner) matches before dedup.
  uint64_t collisions = 0;
  // ends[r]: distinct candidates of probe sets 0..r, i.e. the offset
  // where r's candidates end in (r, s) order.
  std::vector<uint64_t> ends;
  // The kept candidates, PackPair(r, s)ed, in (r, s) order.
  std::vector<uint64_t> kept;

  uint64_t total() const { return ends.empty() ? 0 : ends.back(); }
};

// The XOR bitmap pre-filter of one join (DESIGN.md Section 11.2): one
// table per side; a self-join tests both ids against the left table.
// Default-constructed it is off: Prunes() keeps every pair and counts
// nothing.
class PairBitmap {
 public:
  PairBitmap() = default;
  PairBitmap(const SetCollection& left, const SetCollection* right,
             const Predicate& predicate, uint32_t bits, ThreadPool& pool);

  size_t size_bytes() const {
    return left_.size_bytes() + right_.size_bytes();
  }
  // The bitmap test of one pair: true when the pair is provably
  // non-matching. Pruned pairs count as false positives, so
  // results/false_positives stay byte-identical with the filter on or
  // off.
  bool Prunes(SetId id_r, SetId id_s, uint64_t* checked,
              uint64_t* pruned) const {
    if (predicate_ == nullptr) return false;
    ++*checked;
    const kernels::BitmapTable& right = sets_r_ != nullptr ? right_ : left_;
    const SetCollection& sets_r = sets_r_ != nullptr ? *sets_r_ : *sets_l_;
    if (kernels::BitmapTable::MayMatch(*predicate_, left_.row(id_r),
                                       right.row(id_s),
                                       left_.words_per_set(),
                                       sets_l_->set_size(id_r),
                                       sets_r.set_size(id_s))) {
      return false;
    }
    ++*pruned;
    return true;
  }

 private:
  kernels::BitmapTable left_;
  kernels::BitmapTable right_;
  const SetCollection* sets_l_ = nullptr;
  const SetCollection* sets_r_ = nullptr;
  const Predicate* predicate_ = nullptr;
};

// The one candidate generator: probes every set of the index in
// fixed-size morsels of consecutive sets spread over the pool. Each
// probe gathers its partners, dedups them with a per-worker stamp array
// and, when `keep`, runs the bitmap test on each distinct partner and
// keeps the survivors, sorted. Morsel outputs concatenate in set order,
// so the result is identical at every thread count. With `keep` false
// nothing is kept and no bitmap test runs (a join without
// verification). `stop` is polled per morsel; after it fires the output
// is partial and must be discarded. `telem` gets one "shard" sample per
// worker.
ProbedCandidates ProbeAll(const ProbeIndex& index, bool keep,
                          const PairBitmap& bitmap, ThreadPool& pool,
                          const std::function<bool()>& stop,
                          obs::JoinTelemetry* telem);

// Index into `candidates.kept` of the first kept pair at or after
// candidate offset `pos` (pos <= total()). When `pos` falls inside one
// probe set's candidates, that set is re-probed and its partners sorted
// to find where the cut lands.
size_t KeptBefore(const ProbeIndex& index,
                  const ProbedCandidates& candidates, uint64_t pos);

}  // namespace ssjoin::detail
