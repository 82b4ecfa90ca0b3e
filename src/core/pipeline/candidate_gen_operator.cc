#include "core/pipeline/candidate_gen_operator.h"

#include <algorithm>
#include <vector>

#include "core/execution_guard.h"
#include "obs/join_telemetry.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {
namespace {

// The (sig, id) postings of a CSR signature table, in set order.
std::vector<Posting> Postings(const SignatureChunk& table) {
  std::vector<Posting> postings;
  postings.reserve(table.values.size());
  for (size_t id = 0; id + 1 < table.offsets.size(); ++id) {
    for (size_t i = table.offsets[id]; i < table.offsets[id + 1]; ++i) {
      postings.emplace_back(table.values[i], static_cast<SetId>(id));
    }
  }
  return postings;
}

}  // namespace

Status CandidateGenOperator::Produce(Batch* sigs) {
  ExecutionGuard* guard = ctx_->guard;
  JoinStats& stats = ctx_->result->stats;
  const JoinOptions& options = *ctx_->options;
  SignatureChunk* table_l = sigs->signatures_l;
  SignatureChunk* table_r = sigs->signatures_r;
  const bool binary = table_r != nullptr;
  rows_in_ = table_l->total() + (binary ? table_r->total() : 0);

  const size_t table_bytes = SignatureChunkBytes(*table_l) +
                             (binary ? SignatureChunkBytes(*table_r) : 0);
  if (guard != nullptr) {
    guard->ChargeMemory(table_bytes);
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  }

  detail::PairBitmap bitmap;
  bitmap_ = options.verify && options.bitmap_bits != 0;
  if (bitmap_) {
    bitmap = detail::PairBitmap(*ctx_->left, ctx_->right, *ctx_->predicate,
                                options.bitmap_bits, *ctx_->pool);
  }
  {
    std::vector<Posting> postings_l = Postings(*table_l);
    std::vector<Posting> postings_r;
    if (binary) postings_r = Postings(*table_r);
    // The postings hold everything the index needs (the charge stays).
    *table_l = SignatureChunk();
    if (binary) *table_r = SignatureChunk();
    index_ = detail::BuildProbeIndex(&postings_l, ctx_->left->size(),
                                     binary ? &postings_r : nullptr,
                                     binary ? ctx_->right->size() : 0,
                                     *ctx_->pool);
  }
  if (guard != nullptr) {
    guard->ChargeMemory(bitmap.size_bytes() + index_.size_bytes());
  }
  candidates_ = detail::ProbeAll(index_, options.verify, bitmap, *ctx_->pool,
                                 detail::StopFn(guard, JoinPhase::kCandGen),
                                 ctx_->telem);
  if (guard != nullptr && guard->tripped()) return guard->trip_status();
  stats.signature_collisions = candidates_.collisions;
  stats.candidates = candidates_.total();
  if (guard != nullptr) {
    guard->ChargeMemory(candidates_.kept.size() * sizeof(uint64_t));
  }
  rows_out_ = stats.candidates;
  return Status::OK();
}

Status CandidateGenOperator::NextBatch(Batch* out) {
  if (!produced_) {
    produced_ = true;
    SSJOIN_RETURN_NOT_OK(input_->Pull(out));
    // A degraded SigGen ends its stream without a table.
    if (ctx_->degrade) return Status::OK();
    Status st = Produce(out);
    out->signatures_l = nullptr;  // consumed; signatures never flow on
    out->signatures_r = nullptr;
    out->kind = Batch::Kind::kEnd;
    SSJOIN_RETURN_NOT_OK(st);
    if (!ctx_->options->verify) return Status::OK();
  }
  if (pos_ >= candidates_.total()) return Status::OK();
  // The chunk covers candidates [pos_, end) as counted before the bitmap
  // and carries the pairs kept among them.
  const uint64_t end =
      std::min<uint64_t>(candidates_.total(), pos_ + kCandidateChunkCapacity);
  const size_t kept_end = detail::KeptBefore(index_, candidates_, end);
  CandidateChunk& chunk = out->candidates;
  out->kind = Batch::Kind::kCandidates;
  chunk.start_offset = static_cast<size_t>(pos_);
  chunk.pre_filter_count = static_cast<size_t>(end - pos_);
  chunk.packed.assign(candidates_.kept.begin() + kept_pos_,
                      candidates_.kept.begin() + kept_end);
  if (bitmap_) {
    chunk.bitmap_checked = chunk.pre_filter_count;
    chunk.bitmap_pruned = chunk.pre_filter_count - chunk.packed.size();
  }
  pos_ = end;
  kept_pos_ = kept_end;
  return Status::OK();
}

void CandidateGenOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
