#include "core/pipeline/pipelined_scan_operator.h"

#include <algorithm>

#include "core/driver_internal.h"
#include "core/execution_guard.h"

namespace ssjoin::pipeline {
namespace {

// Sets per unit: the scan's barrier granularity and chunk size, fixed so
// that guard decisions never depend on the thread count.
constexpr size_t kUnitSets = 1024;

}  // namespace

Status PipelinedScanOperator::Open() {
  ExecutionGuard* guard = ctx_->guard;
  const JoinOptions& options = *ctx_->options;
  auto_spill_ = options.spill.policy == SpillPolicy::kAuto &&
                guard != nullptr && guard->budget().memory_budget_bytes > 0;
  if (options.verify && options.bitmap_bits != 0) {
    bitmap_ = detail::PairBitmap(*ctx_->left, nullptr, *ctx_->predicate,
                                 options.bitmap_bits, *ctx_->pool);
    if (guard != nullptr) {
      guard->ChargeMemory(bitmap_.size_bytes());
      ctx_->degrade_release_bytes += bitmap_.size_bytes();
    }
  }
  return Status::OK();
}

// Guard barrier for the pipelined scan: phases interleave per set, so
// every barrier charges the inverted-index growth and runs all three
// phase checkpoints plus the breaker. Stats at a barrier cover whole
// units only (downstream verify commits before the next pull), so a
// deterministic trip reports deterministic partials. The breaker
// compares candidates to *verified* pairs, so it only runs when
// verification does.
Status PipelinedScanOperator::Barrier() {
  ExecutionGuard* guard = ctx_->guard;
  JoinStats& stats = ctx_->result->stats;
  guard->ChargeMemory((stats.signatures_r - charged_sigs_) *
                      sizeof(Posting));
  charged_sigs_ = stats.signatures_r;
  if (auto_spill_ &&
      guard->memory_charged() > guard->budget().memory_budget_bytes) {
    // Degrade, don't trip: the checkpoint is skipped so the guard never
    // latches, and the index charge is handed back by the runner before
    // it starts the out-of-core rerun.
    ctx_->degrade = true;
    ctx_->degrade_release_bytes += charged_sigs_ * sizeof(Posting);
    return Status::OK();
  }
  SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSigGen));
  SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kVerify));
  if (!ctx_->options->verify) return Status::OK();
  return guard->CheckBreaker(JoinPhase::kVerify, stats.candidates,
                             stats.results);
}

Status PipelinedScanOperator::NextBatch(Batch* out) {
  if (done_) return Status::OK();
  if (ctx_->guard != nullptr) {
    // Runs before every unit and once more past the end of the input —
    // the legacy pre-group barriers plus the final one.
    SSJOIN_RETURN_NOT_OK(Barrier());
    if (ctx_->degrade) {
      done_ = true;
      return Status::OK();
    }
  }
  if (next_ >= ctx_->left->size()) {
    done_ = true;
    return Status::OK();
  }
  ScanUnit(out);
  out->kind = Batch::Kind::kCandidates;
  rows_out_ = ctx_->result->stats.candidates;
  return Status::OK();
}

void PipelinedScanOperator::ScanUnit(Batch* out) {
  const SetCollection& input = *ctx_->left;
  JoinStats& stats = ctx_->result->stats;
  CandidateChunk& chunk = out->candidates;
  chunk.start_offset = static_cast<size_t>(stats.candidates);
  const SetId end =
      static_cast<SetId>(std::min<size_t>(input.size(), next_ + kUnitSets));
  for (SetId id = next_; id < end; ++id) {
    detail::GenerateSorted(*ctx_->scheme, input.set(id), &sigs_);
    stats.signatures_r += sigs_.size();
    stats.signature_collisions += index_.Probe(sigs_, &partners_);
    stats.candidates += partners_.size();
    if (ctx_->options->verify) {
      for (SetId partner : partners_) {
        if (!bitmap_.Prunes(partner, id, &chunk.bitmap_checked,
                            &chunk.bitmap_pruned)) {
          chunk.packed.push_back(PackPair(partner, id));
        }
      }
    }
    // Index append: verification never reads the index and probes only
    // see smaller ids, so appending here (before the downstream verify
    // of this unit) changes nothing a probe can observe.
    index_.Add(sigs_, id);
  }
  chunk.pre_filter_count = static_cast<size_t>(stats.candidates) -
                           chunk.start_offset;
  rows_in_ += end - next_;
  next_ = end;
}

void PipelinedScanOperator::Close() {
  // A self-join's right side is its left side.
  ctx_->result->stats.signatures_s = ctx_->result->stats.signatures_r;
  Operator::Close();
}

}  // namespace ssjoin::pipeline
