// PipelinedScanOperator: source for ExecutionMode::kPipelinedSelfJoin
// (DESIGN.md Section 13). One operator fuses SigGen and CandPair the way
// §3's engineering note pipelines them — an incremental SignatureIndex
// over already-processed sets, probed per set so candidates stream out
// without a global signature table. It emits one CandidateChunk per unit
// of 1024 probe sets, packed per set in sorted partner order. The loop
// is the same at every thread count (threads speed up the eager bitmap
// build and Verify downstream), so units, barriers and output never
// depend on the pool size.
//
// The guard barrier precedes every unit (and runs once more at end of
// input): charge the index growth, arm auto-spill degradation, then the
// three phase checkpoints and — only when verifying — the breaker over
// committed candidates vs results. Downstream operators commit a unit's
// verify stats before the next pull, so a barrier always observes
// whole-unit totals. On degradation the operator charges nothing
// further, adds the index footprint to ctx->degrade_release_bytes, and
// ends the stream; the runner reruns out of core.
//
// When verifying, each unit's candidates pass the bitmap test before
// the unit is emitted; the tables are built for the whole input in
// Open() (ids are known even though the index grows incrementally) and
// their charge joins ctx->degrade_release_bytes.
//
// Signature generation, probing and the bitmap test interleave per set,
// so the whole operator — index and bitmap build included — counts
// under CandPair: its self-time is the join's candpair_seconds and
// siggen_seconds stays 0.

#pragma once

#include <cstdint>
#include <vector>

#include "core/driver_internal.h"
#include "core/pipeline/operator.h"
#include "core/signature_index.h"

namespace ssjoin::pipeline {

class PipelinedScanOperator : public Operator {
 public:
  explicit PipelinedScanOperator(ExecContext* ctx)
      : Operator(ctx, "PipelinedScan", "inverted index",
                 obs::names::kOpPipelinedScan, &JoinStats::candpair_seconds) {}

  Status Open() override;
  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  Status Barrier();
  void ScanUnit(Batch* out);

  bool auto_spill_ = false;
  bool done_ = false;
  SetId next_ = 0;
  uint64_t charged_sigs_ = 0;
  SignatureIndex index_;
  detail::PairBitmap bitmap_;
  // Per-set scratch, reused across sets.
  std::vector<Signature> sigs_;
  std::vector<SetId> partners_;
};

}  // namespace ssjoin::pipeline
