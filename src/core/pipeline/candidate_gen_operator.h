// CandidateGenOperator: the sorted drivers' candidate-generation phase
// (DESIGN.md Section 13). Pulls the one kSignatures batch from
// SigGenOperator, runs the shard/union candidate generation, then
// streams the sorted packed-candidate vector as 16384-candidate
// CandidateChunks (the guarded verify super-chunks).
//
// Phase contract, identical to the legacy drivers, in order: the
// auto-spill budget check against the CSR table footprint (degrade →
// free the tables, set ctx->degrade, end the stream cleanly — the guard
// must not latch); ChargeMemory(table bytes) + the kCandGen checkpoint;
// bucket/shard/union; tripped → zero the partial collision/candidate
// counters and surface the trip; the candidate-vector memory charge.
// With verify off the stream ends after generation — stats are complete
// and no chunks flow (the legacy !verify early-return). The operator's
// self-time is the join's candpair_seconds.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class CandidateGenOperator : public Operator {
 public:
  explicit CandidateGenOperator(ExecContext* ctx)
      : Operator(ctx, "CandidateGen", "sorted shards",
                 obs::names::kOpCandGen, &JoinStats::candpair_seconds) {}

  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  Status Produce(Batch* sigs);

  bool produced_ = false;
  std::vector<uint64_t> candidates_;
  size_t pos_ = 0;
};

}  // namespace ssjoin::pipeline
