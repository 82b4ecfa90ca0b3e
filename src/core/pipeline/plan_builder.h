// The plan builder: every execution mode as one operator chain
// (DESIGN.md Section 13). The runner in core/ssjoin.cc builds one plan
// and calls Plan::Run; everything the modes share — guard protocol,
// telemetry discipline, explain plan recording — lives in the
// operators, once.
//
//   Sorted     SigGen -> CandidateGen [-> Verify] -> DedupEmit
//   Pipelined  PipelinedScan [-> Verify] -> DedupEmit
//   Spilled    SpillPartition [-> Verify] -> DedupEmit
//
// Verify exists only when options.verify. Every source runs the bitmap
// test itself (options.bitmap_bits != 0) and hands Verify only the
// survivors. The sorted and spilled chains emit globally sorted
// candidates, so their DedupEmit appends; the pipelined chain emits in
// discovery order and sorts at end of stream.

#pragma once

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

/// Fills `plan` with the chain for `ctx->mode`: the spilled chain when
/// `spill` is set (either self-join mode or the binary join), otherwise
/// the pipelined chain for kPipelinedSelfJoin and the sorted chain for
/// the rest.
void BuildPlan(Plan* plan, ExecContext* ctx, bool spill);

}  // namespace ssjoin::pipeline
