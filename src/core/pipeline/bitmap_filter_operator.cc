#include "core/pipeline/bitmap_filter_operator.h"

#include <string>

#include "core/driver_internal.h"
#include "core/execution_guard.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {

BitmapFilterOperator::BitmapFilterOperator(ExecContext* ctx, bool eager)
    : Operator(ctx, "BitmapFilter",
               std::to_string(ctx->options->bitmap_bits) + "-bit " +
                   (eager ? "eager" : "deferred"),
               obs::names::kOpBitmapFilter, &JoinStats::postfilter_seconds),
      eager_(eager) {}

Status BitmapFilterOperator::Open() {
  if (!eager_) return Status::OK();
  // Pipelined discipline: rows for the whole input are built upfront
  // (ids are known even though the index grows incrementally).
  ExecutionGuard* guard = ctx_->guard;
  bitmap_l_ = detail::BuildBitmap(*ctx_->left, ctx_->options->bitmap_bits,
                                  *ctx_->pool);
  if (guard != nullptr) {
    guard->ChargeMemory(bitmap_l_.size_bytes());
    ctx_->degrade_release_bytes += bitmap_l_.size_bytes();
  }
  bm_l_ = &bitmap_l_;
  bm_r_ = &bitmap_l_;
  ready_ = true;
  return Status::OK();
}

void BitmapFilterOperator::EnsureReady() {
  if (ready_) return;
  ready_ = true;
  ExecutionGuard* guard = ctx_->guard;
  uint32_t bits = ctx_->options->bitmap_bits;
  bitmap_l_ = detail::BuildBitmap(*ctx_->left, bits, *ctx_->pool);
  bm_l_ = &bitmap_l_;
  if (ctx_->right != nullptr) {
    bitmap_r_ = detail::BuildBitmap(*ctx_->right, bits, *ctx_->pool);
    bm_r_ = &bitmap_r_;
  } else {
    bm_r_ = &bitmap_l_;  // self-shaped: one table serves both sides
  }
  if (guard != nullptr) {
    guard->ChargeMemory(
        bitmap_l_.size_bytes() +
        (ctx_->right != nullptr ? bitmap_r_.size_bytes() : 0));
  }
}

void BitmapFilterOperator::FilterChunk(CandidateChunk* chunk) {
  const SetCollection& r = *ctx_->left;
  const SetCollection& s = ctx_->right != nullptr ? *ctx_->right : *ctx_->left;
  const Predicate& predicate = *ctx_->predicate;
  size_t kept = 0;
  for (uint64_t packed : chunk->packed) {
    auto [id_r, id_s] = UnpackPair(packed);
    if (detail::BitmapPrunes(bm_l_, bm_r_, predicate, id_r, id_s,
                             r.set(id_r).size(), s.set(id_s).size(),
                             &chunk->bitmap_checked,
                             &chunk->bitmap_pruned)) {
      continue;
    }
    chunk->packed[kept++] = packed;
  }
  chunk->packed.resize(kept);
}

Status BitmapFilterOperator::NextBatch(Batch* out) {
  SSJOIN_RETURN_NOT_OK(input_->Pull(out));
  if (!eager_ && !ctx_->degrade) EnsureReady();
  if (out->kind != Batch::Kind::kCandidates) return Status::OK();
  CandidateChunk& chunk = out->candidates;
  rows_in_ += chunk.packed.size();
  FilterChunk(&chunk);
  rows_out_ += chunk.packed.size();
  return Status::OK();
}

void BitmapFilterOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
