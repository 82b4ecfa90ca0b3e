#include "core/pipeline/siggen_operator.h"

#include <algorithm>
#include <utility>

#include "core/driver_internal.h"
#include "core/execution_guard.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {

// Appends Sign(set) of every set of `input` to the CSR `table`, one
// detail::GenerateChunk at a time. With a `degrade_above` budget (0 =
// none) the auto-spill check runs after each chunk, and once for an
// empty input. Returns false when it fired (the table then holds a
// prefix of the sets) or the guard tripped (the table is partial and
// must be discarded).
bool SigGenOperator::AppendSide(const SetCollection& input,
                                SignatureChunk* table, size_t degrade_above) {
  table->offsets.assign(1, 0);
  size_t begin = 0;
  do {
    const size_t end =
        std::min(input.size(), begin + detail::kSigGenChunkSets);
    detail::GenerateChunk(input, *ctx_->scheme, begin, end, *ctx_->pool,
                          ctx_->guard, &scratch_);
    if (ctx_->guard != nullptr && ctx_->guard->tripped()) return false;
    for (size_t i = 0; i < end - begin; ++i) {
      table->values.insert(table->values.end(), scratch_[i].begin(),
                           scratch_[i].end());
      table->offsets.push_back(table->values.size());
    }
    begin = end;
    if (degrade_above > 0 &&
        ctx_->guard->memory_charged() + SignatureChunkBytes(left_) +
                SignatureChunkBytes(right_) >
            degrade_above) {
      return false;
    }
  } while (begin < input.size());
  return true;
}

Status SigGenOperator::NextBatch(Batch* out) {
  if (done_) return Status::OK();  // out is already an end batch
  done_ = true;
  ExecutionGuard* guard = ctx_->guard;
  JoinStats& stats = ctx_->result->stats;
  if (guard != nullptr) {
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSigGen));
  }
  const bool binary = ctx_->right != nullptr;
  // The auto-spill degrade check (DESIGN.md Section 12): would the tables
  // blow the memory budget? They only grow, so checking after every
  // chunk fires exactly when a check of the finished tables would, at
  // the same chunk for every thread count.
  const size_t degrade_above =
      ctx_->options->spill.policy == SpillPolicy::kAuto && guard != nullptr
          ? guard->budget().memory_budget_bytes
          : 0;
  const bool complete =
      AppendSide(*ctx_->left, &left_, degrade_above) &&
      (!binary || AppendSide(*ctx_->right, &right_, degrade_above));
  scratch_ = {};
  if (guard != nullptr && guard->tripped()) {
    // Stopped mid-SigGen: the chunk is incomplete, commit nothing.
    return guard->trip_status();
  }
  rows_in_ = left_.sets() + right_.sets();
  rows_out_ = left_.total() + right_.total();
  if (!complete) {
    // Degrade: hand what was generated to the spilled rerun and end the
    // stream cleanly — the guard does not latch and nothing is charged.
    ctx_->degrade = SignaturePrefix{std::move(left_), std::move(right_)};
    return Status::OK();
  }
  stats.signatures_r = left_.total();
  stats.signatures_s = binary ? right_.total() : left_.total();
  out->kind = Batch::Kind::kSignatures;
  out->signatures_l = &left_;
  out->signatures_r = binary ? &right_ : nullptr;
  return Status::OK();
}

void SigGenOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
