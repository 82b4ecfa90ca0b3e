// The plan builder: every execution mode as one operator chain
// (DESIGN.md Section 13). The runner in core/ssjoin.cc builds one plan
// and calls Plan::Run; everything the modes share — guard protocol,
// telemetry discipline, explain plan recording — lives in the
// operators, once.
//
//   In memory  SigGen -> CandidateGen [-> Verify] -> DedupEmit
//   Spilled    SpillPartition [-> Verify] -> DedupEmit
//
// Verify exists only when options.verify. Every source runs the bitmap
// test itself (options.bitmap_bits != 0) and hands Verify only the
// survivors. Both sources emit globally sorted candidates in
// 16384-candidate chunks, so Verify walks the same guarded super-chunk
// barriers and DedupEmit appends.

#pragma once

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

/// Fills `plan` with the spilled chain when `spill` is set (self or
/// binary join), otherwise with the in-memory chain.
void BuildPlan(Plan* plan, ExecContext* ctx, bool spill);

}  // namespace ssjoin::pipeline
