// CandidateGenOperator: the sorted drivers' candidate-generation phase
// (DESIGN.md Section 13). Pulls the one kSignatures batch from
// SigGenOperator, builds the settled signature index, probes it with
// the bitmap test inline (detail::ProbeAll), then streams the kept
// candidates as CandidateChunks cut every 16384 candidates counted
// before the bitmap (the guarded verify super-chunks).
//
// Phase contract, in order: the auto-spill budget check against the CSR
// table footprint (degrade → free the tables, set ctx->degrade, end the
// stream cleanly — the guard must not latch); ChargeMemory(table bytes)
// + the kCandGen checkpoint; the bitmap tables, the index and the probe,
// each charged; tripped → zero the partial collision/candidate counters
// and surface the trip. With verify off the stream ends after
// generation — stats are complete and no chunks flow. The operator's
// self-time, the bitmap test included, is the join's candpair_seconds.

#pragma once

#include <cstddef>
#include <cstdint>

#include "core/driver_internal.h"
#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class CandidateGenOperator : public Operator {
 public:
  explicit CandidateGenOperator(ExecContext* ctx)
      : Operator(ctx, "CandidateGen", "probe index",
                 obs::names::kOpCandGen, &JoinStats::candpair_seconds) {}

  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  Status Produce(Batch* sigs);

  bool produced_ = false;
  bool bitmap_ = false;
  detail::ProbeIndex index_;
  detail::ProbedCandidates candidates_;
  // Next chunk's first candidate offset and first kept pair.
  uint64_t pos_ = 0;
  size_t kept_pos_ = 0;
};

}  // namespace ssjoin::pipeline
