// Internal seam between the spill layer and the operator pipeline: one
// out-of-core attempt at a fixed partition count. SpillPartitionOperator
// (core/pipeline) drives the retry loop around this. Nothing here is
// API: callers reach the spilled join through Join() with
// SpillPolicy::kForced, or through an auto-spill degrade.

#pragma once

#include <cstdint>
#include <vector>

#include "core/execution_guard.h"
#include "core/pipeline/chunk.h"
#include "core/signature_scheme.h"
#include "core/ssjoin.h"
#include "data/collection.h"
#include "obs/join_telemetry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ssjoin::spill::internal {

// One spill attempt: write both sides into partition files, then run
// candidate generation partition by partition and merge. The write stage
// appends the postings of `*handover` — the signatures an auto-spill
// degrade generated, empty otherwise — and generates only the sets after
// them; it empties each side of `*handover` as that side's write ends,
// so a retry generates every set. Fills `stats`
// (signature/collision/candidate counters, spill byte counters —
// always, so failed attempts still account their I/O) and
// `*candidates` (only valid on OK). The attempt's temp directory and
// guard charges are released on every path; the merged candidate vector
// is the only thing that escapes.
Status RunAttempt(const SetCollection& left, const SetCollection* right,
                  const SignatureScheme& scheme, const JoinOptions& options,
                  uint32_t partitions, pipeline::SignaturePrefix* handover,
                  ThreadPool& pool, ExecutionGuard* guard,
                  obs::JoinTelemetry& telem, JoinStats* stats,
                  std::vector<uint64_t>* candidates);

}  // namespace ssjoin::spill::internal
