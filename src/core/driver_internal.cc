// Definitions of the shared building blocks declared in
// core/driver_internal.h. The operator pipeline (core/pipeline) and the
// spill layer (core/spill) both consume them from here, so the exact
// candidate-generation code runs in every execution path — which is what
// makes the byte-identity contract (DESIGN.md Section 12) a structural
// property.

#include "core/driver_internal.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/kernels/flat_set.h"
#include "util/hashing.h"

namespace ssjoin::detail {

std::function<bool()> StopFn(ExecutionGuard* guard, JoinPhase phase) {
  if (guard == nullptr) return {};
  return [guard, phase] { return guard->ShouldStop(phase); };
}

// Replaces *scratch with the deduplicated, sorted Sign(set).
void GenerateSorted(const SignatureScheme& scheme,
                    std::span<const ElementId> set,
                    std::vector<Signature>* scratch) {
  scratch->clear();
  scheme.Generate(set, scratch);
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
}

// Shard assignment for candidate generation. All postings of one
// signature land in one shard, so a signature group never straddles
// shards: per-shard collision counts sum to exactly the serial total,
// and the Section 4 / Theorem 2 accounting is preserved.
size_t ShardOf(Signature sig, size_t shards) {
  return shards == 1 ? 0 : static_cast<size_t>(Mix64(sig) % shards);
}

namespace {

// Occurrence-count cutoff for the flat dedup table. Below it the table
// (sized for every insertion up front, so it never rehashes) stays
// cache-resident and one Mix64 probe per occurrence beats sort+unique
// handily; above it every probe is a cache miss into a multi-MiB table
// and the sequential sort wins back. Both paths produce the identical
// sorted duplicate-free vector, so the switch is invisible in output.
constexpr uint64_t kFlatDedupMaxInsertions = 1ull << 17;

// Dedup sink for the candidate shards: flat table or occurrence vector
// chosen once per shard from the exact insertion count.
class CandidateDedup {
 public:
  explicit CandidateDedup(uint64_t expected_insertions) {
    use_flat_ = expected_insertions <= kFlatDedupMaxInsertions;
    if (use_flat_) {
      flat_.Reserve(static_cast<size_t>(expected_insertions));
    } else {
      occurrences_.reserve(static_cast<size_t>(expected_insertions));
    }
  }

  void Insert(uint64_t key) {
    if (use_flat_) {
      flat_.Insert(key);
    } else {
      occurrences_.push_back(key);
    }
  }

  std::vector<uint64_t> ExtractSorted() {
    if (use_flat_) return flat_.ExtractSorted();
    std::sort(occurrences_.begin(), occurrences_.end());
    occurrences_.erase(
        std::unique(occurrences_.begin(), occurrences_.end()),
        occurrences_.end());
    return std::move(occurrences_);
  }

 private:
  bool use_flat_ = true;
  kernels::FlatU64Set flat_;
  std::vector<uint64_t> occurrences_;
};

}  // namespace

// Self-join candidate generation over one shard's sorted postings.
// Within a signature group the (sig, id) postings are unique and sorted,
// so ids ascend: a < b already yields first < second.
ShardCandidates SelfJoinShard(const std::vector<Posting>& postings,
                              const std::function<bool()>& stop) {
  ShardCandidates out;
  // Pre-scan the signature groups for the exact insertion count
  // (== collisions >= distinct candidates): one sequential pass picks
  // the dedup strategy and sizes it in a single allocation.
  uint64_t expected = 0;
  for (size_t g = 0; g < postings.size();) {
    size_t h = g;
    while (h < postings.size() && postings[h].first == postings[g].first) {
      ++h;
    }
    uint64_t group = h - g;
    expected += group * (group - 1) / 2;
    g = h;
  }
  CandidateDedup dedup(expected);
  size_t i = 0;
  uint64_t groups = 0;
  while (i < postings.size()) {
    if (stop && (groups++ & 63u) == 0 && stop()) break;
    size_t j = i;
    while (j < postings.size() && postings[j].first == postings[i].first) {
      ++j;
    }
    uint64_t group = j - i;
    out.collisions += group * (group - 1) / 2;
    for (size_t a = i; a < j; ++a) {
      for (size_t b = a + 1; b < j; ++b) {
        dedup.Insert(PackPair(postings[a].second, postings[b].second));
      }
    }
    i = j;
  }
  out.packed = dedup.ExtractSorted();
  return out;
}

// Binary-join candidate generation: merge-join of the two shard slices.
ShardCandidates BinaryJoinShard(const std::vector<Posting>& postings_r,
                                const std::vector<Posting>& postings_s,
                                const std::function<bool()>& stop) {
  ShardCandidates out;
  // Same exact-insertion-count pre-scan as SelfJoinShard, via a dry
  // merge over the two posting lists.
  uint64_t expected = 0;
  for (size_t gi = 0, gj = 0;
       gi < postings_r.size() && gj < postings_s.size();) {
    Signature sr = postings_r[gi].first;
    Signature ss = postings_s[gj].first;
    if (sr < ss) {
      ++gi;
    } else if (ss < sr) {
      ++gj;
    } else {
      size_t ei = gi, ej = gj;
      while (ei < postings_r.size() && postings_r[ei].first == sr) ++ei;
      while (ej < postings_s.size() && postings_s[ej].first == sr) ++ej;
      expected += static_cast<uint64_t>(ei - gi) * (ej - gj);
      gi = ei;
      gj = ej;
    }
  }
  CandidateDedup dedup(expected);
  size_t i = 0, j = 0;
  uint64_t iters = 0;
  while (i < postings_r.size() && j < postings_s.size()) {
    if (stop && (iters++ & 1023u) == 0 && stop()) break;
    Signature sig_r = postings_r[i].first;
    Signature sig_s = postings_s[j].first;
    if (sig_r < sig_s) {
      ++i;
    } else if (sig_s < sig_r) {
      ++j;
    } else {
      size_t ei = i, ej = j;
      while (ei < postings_r.size() && postings_r[ei].first == sig_r) ++ei;
      while (ej < postings_s.size() && postings_s[ej].first == sig_r) ++ej;
      out.collisions += static_cast<uint64_t>(ei - i) * (ej - j);
      for (size_t a = i; a < ei; ++a) {
        for (size_t b = j; b < ej; ++b) {
          dedup.Insert(PackPair(postings_r[a].second, postings_s[b].second));
        }
      }
      i = ei;
      j = ej;
    }
  }
  out.packed = dedup.ExtractSorted();
  return out;
}

// Unions sorted duplicate-free candidate lists: log2(n) pairwise
// set_union rounds, the merges of each round running in parallel.
std::vector<uint64_t> UnionShards(std::vector<std::vector<uint64_t>> lists,
                                  ThreadPool& pool,
                                  const std::function<bool()>& stop) {
  if (lists.empty()) return {};
  while (lists.size() > 1) {
    size_t pairs = lists.size() / 2;
    std::vector<std::vector<uint64_t>> next(pairs + lists.size() % 2);
    ParallelFor(pool, pairs, [&](size_t begin, size_t end, size_t) {
      for (size_t p = begin; p < end; ++p) {
        if (stop && stop()) return;
        const std::vector<uint64_t>& a = lists[2 * p];
        const std::vector<uint64_t>& b = lists[2 * p + 1];
        std::vector<uint64_t> merged;
        merged.reserve(a.size() + b.size());
        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(merged));
        next[p] = std::move(merged);
      }
    });
    if (lists.size() % 2) next.back() = std::move(lists.back());
    lists = std::move(next);
    if (stop && stop()) break;
  }
  return std::move(lists[0]);
}

// Shared candidate-generation phase: run `shard_fn` per pool shard, then
// union the shard outputs. Fills stats->signature_collisions /
// stats->candidates and returns the global sorted duplicate-free
// candidate vector.
std::vector<uint64_t> GenerateCandidates(
    ThreadPool& pool,
    const std::function<ShardCandidates(size_t)>& shard_fn,
    const std::function<bool()>& stop, JoinStats* stats,
    obs::JoinTelemetry* telem) {
  size_t shards = pool.size();
  std::vector<ShardCandidates> per_shard(shards);
  obs::Histogram* shard_candidates =
      telem->metrics() != nullptr
          ? &telem->metrics()->histogram("join.shard.candidates")
          : nullptr;
  obs::Histogram* shard_micros =
      telem->metrics() != nullptr
          ? &telem->metrics()->histogram("join.shard.micros")
          : nullptr;
  pool.RunOnAll([&](size_t shard) {
    {
      // Runtime span per shard (lane = shard + 1; lane 0 is the control
      // thread) — excluded from the deterministic export.
      auto sample = telem->Sample("shard", shard_micros,
                                  static_cast<uint32_t>(shard) + 1);
      per_shard[shard] = shard_fn(shard);
      if (sample.span() != obs::kNoSpan) {
        telem->tracer()->SetAttr(
            sample.span(), "candidates",
            static_cast<uint64_t>(per_shard[shard].packed.size()));
      }
    }
    if (shard_candidates != nullptr) {
      shard_candidates->Record(per_shard[shard].packed.size());
    }
  });
  std::vector<std::vector<uint64_t>> lists;
  lists.reserve(shards);
  for (ShardCandidates& sc : per_shard) {
    stats->signature_collisions += sc.collisions;
    lists.push_back(std::move(sc.packed));
  }
  std::vector<uint64_t> candidates =
      UnionShards(std::move(lists), pool, stop);
  stats->candidates = candidates.size();
  return candidates;
}

// Builds the XOR bitmap signature table for `input` with the rows
// sharded across the pool. Row contents are per-set independent, so the
// table is byte-identical for every thread count.
kernels::BitmapTable BuildBitmap(const SetCollection& input, uint32_t bits,
                                 ThreadPool& pool) {
  kernels::BitmapTable table =
      kernels::BitmapTable::Prepare(input.size(), bits);
  ParallelFor(pool, input.size(),
              [&](size_t begin, size_t end, size_t) {
                table.BuildRange(input, begin, end);
              });
  return table;
}

}  // namespace ssjoin::detail
