// Definitions of the shared building blocks declared in
// core/driver_internal.h. The operator pipeline (core/pipeline) and the
// spill layer (core/spill) both consume them from here, so the exact
// candidate-generation code runs in every execution path — which is what
// makes the byte-identity contract (DESIGN.md Section 12) a structural
// property.

#include "core/driver_internal.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

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

namespace {

// Probe sets per morsel: the unit of work handed to a worker, fixed so
// that morsel boundaries never depend on the thread count.
constexpr size_t kProbeMorselSets = 1024;

// Postings per grouping bucket on average: small enough that a bucket
// sorts inside the cache.
constexpr size_t kPostingsPerBucket = 1024;

// Reorders *postings so that each signature's postings are contiguous,
// ids ascending: a counting scatter into `buckets` (a power of two)
// buckets by the low bits of Mix64(sig), then each bucket sorted on the
// pool. Returns the buckets + 1 bucket bounds. Groups come out in hash
// order, which nothing downstream depends on.
std::vector<size_t> GroupBySignature(std::vector<Posting>* postings,
                                     size_t buckets, ThreadPool& pool) {
  auto bucket_of = [buckets](Signature sig) {
    return static_cast<size_t>(Mix64(sig) & (buckets - 1));
  };
  std::vector<size_t> bounds(buckets + 1, 0);
  for (const Posting& p : *postings) ++bounds[bucket_of(p.first) + 1];
  for (size_t b = 0; b < buckets; ++b) bounds[b + 1] += bounds[b];
  std::vector<Posting> grouped(postings->size());
  std::vector<size_t> fill(bounds.begin(), bounds.end() - 1);
  for (const Posting& p : *postings) grouped[fill[bucket_of(p.first)]++] = p;
  *postings = std::move(grouped);
  ParallelFor(pool, buckets, [&](size_t begin, size_t end, size_t) {
    for (size_t b = begin; b < end; ++b) {
      std::sort(postings->begin() + bounds[b],
                postings->begin() + bounds[b + 1]);
    }
  });
  return bounds;
}

// End of the signature group starting at postings[i].
size_t GroupEnd(const std::vector<Posting>& postings, size_t i) {
  size_t j = i;
  while (j < postings.size() && postings[j].first == postings[i].first) ++j;
  return j;
}

}  // namespace

ProbeIndex BuildProbeIndex(std::vector<Posting>* postings_r, size_t sets_r,
                           std::vector<Posting>* postings_s, size_t sets_s,
                           ThreadPool& pool) {
  ProbeIndex index;
  const size_t total =
      postings_r->size() + (postings_s != nullptr ? postings_s->size() : 0);
  const size_t buckets =
      std::bit_ceil(std::max<size_t>(1, total / kPostingsPerBucket));
  const std::vector<size_t> bounds_r =
      GroupBySignature(postings_r, buckets, pool);
  // (probe set, partner range) in group order, bucketed by probe set
  // below.
  std::vector<std::pair<SetId, std::pair<size_t, size_t>>> entries;
  if (postings_s == nullptr) {
    index.indexed_sets = sets_r;
    for (size_t i = 0; i < postings_r->size();) {
      size_t j = GroupEnd(*postings_r, i);
      if (j - i >= 2) {
        const size_t base = index.ids.size();
        for (size_t a = i; a < j; ++a) {
          index.ids.push_back((*postings_r)[a].second);
          // Ids ascend within a group: r's partners are the ids after it.
          if (a + 1 < j) {
            entries.push_back({(*postings_r)[a].second,
                               {base + (a - i) + 1, base + (j - i)}});
          }
        }
      }
      i = j;
    }
  } else {
    index.indexed_sets = sets_s;
    const std::vector<size_t> bounds_s =
        GroupBySignature(postings_s, buckets, pool);
    // Both sides share the bucket function, so a signature's R and S
    // groups sit in the same bucket: merge-join bucket by bucket.
    for (size_t bucket = 0; bucket < buckets; ++bucket) {
      for (size_t i = bounds_r[bucket], k = bounds_s[bucket];
           i < bounds_r[bucket + 1] && k < bounds_s[bucket + 1];) {
        Signature sig_r = (*postings_r)[i].first;
        Signature sig_s = (*postings_s)[k].first;
        if (sig_r < sig_s) {
          i = GroupEnd(*postings_r, i);
        } else if (sig_s < sig_r) {
          k = GroupEnd(*postings_s, k);
        } else {
          size_t j = GroupEnd(*postings_r, i);
          size_t l = GroupEnd(*postings_s, k);
          const size_t base = index.ids.size();
          for (size_t b = k; b < l; ++b) {
            index.ids.push_back((*postings_s)[b].second);
          }
          for (size_t a = i; a < j; ++a) {
            entries.push_back(
                {(*postings_r)[a].second, {base, base + (l - k)}});
          }
          i = j;
          k = l;
        }
      }
    }
  }
  index.offsets.assign(sets_r + 1, 0);
  for (const auto& entry : entries) ++index.offsets[entry.first + 1];
  for (size_t r = 0; r < sets_r; ++r) {
    index.offsets[r + 1] += index.offsets[r];
  }
  index.ranges.resize(entries.size());
  std::vector<size_t> fill(index.offsets.begin(), index.offsets.end() - 1);
  for (const auto& entry : entries) {
    index.ranges[fill[entry.first]++] = entry.second;
  }
  return index;
}

PairBitmap::PairBitmap(const SetCollection& left, const SetCollection* right,
                       const Predicate& predicate, uint32_t bits,
                       ThreadPool& pool)
    : sets_l_(&left), sets_r_(right), predicate_(&predicate) {
  // Row contents are per-set independent, so the tables are
  // byte-identical for every thread count.
  auto build = [&](const SetCollection& input) {
    kernels::BitmapTable table =
        kernels::BitmapTable::Prepare(input.size(), bits);
    ParallelFor(pool, input.size(), [&](size_t begin, size_t end, size_t) {
      table.BuildRange(input, begin, end);
    });
    return table;
  };
  left_ = build(left);
  if (right != nullptr) right_ = build(*right);
}

ProbedCandidates ProbeAll(const ProbeIndex& index, bool keep,
                          const PairBitmap& bitmap, ThreadPool& pool,
                          const std::function<bool()>& stop,
                          obs::JoinTelemetry* telem) {
  const size_t sets = index.offsets.empty() ? 0 : index.offsets.size() - 1;
  const size_t morsels = (sets + kProbeMorselSets - 1) / kProbeMorselSets;
  ProbedCandidates out;
  out.ends.resize(sets);
  std::vector<std::vector<uint64_t>> kept(morsels);
  std::vector<uint64_t> collisions(pool.size(), 0);
  obs::MetricsRegistry* metrics = telem->metrics();
  obs::Histogram* shard_candidates =
      metrics != nullptr ? &metrics->histogram("join.shard.candidates")
                         : nullptr;
  obs::Histogram* shard_micros =
      metrics != nullptr ? &metrics->histogram("join.shard.micros") : nullptr;
  pool.RunOnAll([&](size_t worker) {
    uint64_t candidates = 0;
    uint64_t gathered = 0;
    {
      // Runtime span per worker (lane = worker + 1; lane 0 is the
      // control thread) — excluded from the deterministic export.
      auto sample = telem->Sample("shard", shard_micros,
                                  static_cast<uint32_t>(worker) + 1);
      std::vector<SetId> stamp;
      std::vector<SetId> distinct;
      uint64_t checked = 0, pruned = 0;
      for (size_t m = worker; m < morsels; m += pool.size()) {
        if (stop && stop()) break;
        if (stamp.empty()) {
          stamp.assign(index.indexed_sets,
                       std::numeric_limits<SetId>::max());
        }
        const size_t end = std::min(sets, (m + 1) * kProbeMorselSets);
        for (size_t r = m * kProbeMorselSets; r < end; ++r) {
          const SetId id = static_cast<SetId>(r);
          distinct.clear();
          for (size_t e = index.offsets[r]; e < index.offsets[r + 1]; ++e) {
            auto [first, last] = index.ranges[e];
            gathered += last - first;
            for (size_t p = first; p < last; ++p) {
              SetId partner = index.ids[p];
              if (stamp[partner] != id) {
                stamp[partner] = id;
                distinct.push_back(partner);
              }
            }
          }
          out.ends[r] = distinct.size();
          candidates += distinct.size();
          if (!keep) continue;
          std::vector<uint64_t>& mine = kept[m];
          const size_t mark = mine.size();
          for (SetId partner : distinct) {
            if (!bitmap.Prunes(id, partner, &checked, &pruned)) {
              mine.push_back(PackPair(id, partner));
            }
          }
          std::sort(mine.begin() + mark, mine.end());
        }
      }
      if (sample.span() != obs::kNoSpan) {
        telem->tracer()->SetAttr(sample.span(), "candidates", candidates);
      }
    }
    collisions[worker] = gathered;
    if (shard_candidates != nullptr) shard_candidates->Record(candidates);
  });
  for (uint64_t c : collisions) out.collisions += c;
  for (size_t r = 1; r < sets; ++r) out.ends[r] += out.ends[r - 1];
  size_t total_kept = 0;
  for (const std::vector<uint64_t>& part : kept) total_kept += part.size();
  out.kept.reserve(total_kept);
  for (const std::vector<uint64_t>& part : kept) {
    out.kept.insert(out.kept.end(), part.begin(), part.end());
  }
  return out;
}

size_t KeptBefore(const ProbeIndex& index,
                  const ProbedCandidates& candidates, uint64_t pos) {
  if (pos >= candidates.total()) return candidates.kept.size();
  // The probe set whose candidates cover `pos`.
  const size_t r = static_cast<size_t>(
      std::upper_bound(candidates.ends.begin(), candidates.ends.end(), pos) -
      candidates.ends.begin());
  const uint64_t first = r == 0 ? 0 : candidates.ends[r - 1];
  SetId cut = 0;
  if (pos > first) {
    std::vector<SetId> partners;
    for (size_t e = index.offsets[r]; e < index.offsets[r + 1]; ++e) {
      partners.insert(partners.end(),
                      index.ids.begin() + index.ranges[e].first,
                      index.ids.begin() + index.ranges[e].second);
    }
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    cut = partners[pos - first];
  }
  return static_cast<size_t>(
      std::lower_bound(candidates.kept.begin(), candidates.kept.end(),
                       PackPair(static_cast<SetId>(r), cut)) -
      candidates.kept.begin());
}

}  // namespace ssjoin::detail
