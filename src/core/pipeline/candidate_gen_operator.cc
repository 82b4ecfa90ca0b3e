#include "core/pipeline/candidate_gen_operator.h"

#include <functional>

#include "core/driver_internal.h"
#include "core/execution_guard.h"
#include "obs/join_telemetry.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {
namespace {

// Scatters a CSR chunk into per-(producer, shard) posting buckets.
// Producer c writes only buckets[c * shards + *], so the pass is
// race-free; shard s later reads buckets[* * shards + s].
std::vector<std::vector<Posting>> BucketPostings(const SignatureChunk& table,
                                                 ThreadPool& pool,
                                                 ExecutionGuard* guard) {
  size_t shards = pool.size();
  std::vector<std::vector<Posting>> buckets(shards * shards);
  size_t num_sets = table.offsets.size() - 1;
  ParallelFor(
      pool, num_sets,
      [&](size_t begin, size_t end, size_t c) {
        std::vector<Posting>* mine = &buckets[c * shards];
        for (size_t id = begin; id < end; ++id) {
          for (size_t i = table.offsets[id]; i < table.offsets[id + 1];
               ++i) {
            Signature sig = table.values[i];
            mine[detail::ShardOf(sig, shards)].emplace_back(
                sig, static_cast<SetId>(id));
          }
        }
      },
      detail::StopFn(guard, JoinPhase::kCandGen));
  return buckets;
}

// Concatenates shard `shard`'s buckets (in producer order) and sorts,
// yielding this shard's slice of the sorted posting list.
std::vector<Posting> ShardPostings(
    const std::vector<std::vector<Posting>>& buckets, size_t shards,
    size_t shard) {
  std::vector<Posting> postings;
  size_t total = 0;
  for (size_t p = 0; p < shards; ++p) {
    total += buckets[p * shards + shard].size();
  }
  postings.reserve(total);
  for (size_t p = 0; p < shards; ++p) {
    const std::vector<Posting>& bucket = buckets[p * shards + shard];
    postings.insert(postings.end(), bucket.begin(), bucket.end());
  }
  std::sort(postings.begin(), postings.end());
  return postings;
}

}  // namespace

Status CandidateGenOperator::Produce(Batch* sigs) {
  ExecutionGuard* guard = ctx_->guard;
  JoinStats& stats = ctx_->result->stats;
  const JoinOptions& options = *ctx_->options;
  ThreadPool& pool = *ctx_->pool;
  SignatureChunk* table_l = sigs->signatures_l;
  SignatureChunk* table_r = sigs->signatures_r;
  const bool binary = table_r != nullptr;
  rows_in_ = table_l->total() + (binary ? table_r->total() : 0);

  // Auto-degradation arm point: with SpillPolicy::kAuto and a memory
  // budget, a signature table that would blow the budget reruns
  // out-of-core instead of tripping the guard (DESIGN.md Section 12).
  // The footprint is thread-count-independent, so the decision is
  // deterministic; the spilled rerun re-generates signatures streaming,
  // so the tables are dropped here rather than carried across.
  const bool auto_spill = options.spill.policy == SpillPolicy::kAuto &&
                          guard != nullptr &&
                          guard->budget().memory_budget_bytes > 0;
  const size_t table_bytes = SignatureChunkBytes(*table_l) +
                             (binary ? SignatureChunkBytes(*table_r) : 0);
  if (auto_spill && guard->memory_charged() + table_bytes >
                        guard->budget().memory_budget_bytes) {
    *table_l = SignatureChunk();
    if (binary) *table_r = SignatureChunk();
    ctx_->degrade = true;
    return Status::OK();
  }
  if (guard != nullptr) {
    guard->ChargeMemory(table_bytes);
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  }

  size_t shards = pool.size();
  std::function<bool()> stop = detail::StopFn(guard, JoinPhase::kCandGen);
  if (!binary) {
    std::vector<std::vector<Posting>> buckets =
        BucketPostings(*table_l, pool, guard);
    candidates_ = detail::GenerateCandidates(
        pool,
        [&](size_t shard) {
          return detail::SelfJoinShard(ShardPostings(buckets, shards, shard),
                                       stop);
        },
        stop, &stats, ctx_->telem);
  } else {
    std::vector<std::vector<Posting>> buckets_r =
        BucketPostings(*table_l, pool, guard);
    std::vector<std::vector<Posting>> buckets_s =
        BucketPostings(*table_r, pool, guard);
    candidates_ = detail::GenerateCandidates(
        pool,
        [&](size_t shard) {
          return detail::BinaryJoinShard(
              ShardPostings(buckets_r, shards, shard),
              ShardPostings(buckets_s, shards, shard), stop);
        },
        stop, &stats, ctx_->telem);
  }
  if (guard != nullptr && guard->tripped()) {
    // Stopped mid-CandGen: its counters are partial garbage, drop them.
    stats.signature_collisions = 0;
    stats.candidates = 0;
    return guard->trip_status();
  }
  if (guard != nullptr) {
    guard->ChargeMemory(candidates_.size() * sizeof(uint64_t));
  }
  rows_out_ = stats.candidates;
  return Status::OK();
}

Status CandidateGenOperator::NextBatch(Batch* out) {
  if (!produced_) {
    produced_ = true;
    SSJOIN_RETURN_NOT_OK(input_->Pull(out));
    Status st = Produce(out);
    out->signatures_l = nullptr;  // consumed; signatures never flow on
    out->signatures_r = nullptr;
    out->kind = Batch::Kind::kEnd;
    SSJOIN_RETURN_NOT_OK(st);
    if (ctx_->degrade || !ctx_->options->verify) return Status::OK();
  }
  EmitCandidateSlice(candidates_, &pos_, out);
  return Status::OK();
}

void CandidateGenOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
